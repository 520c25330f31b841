// Perf trajectory of the evaluation pipeline itself: times the fig3+fig4
// point set (the core hash-map suites) twice and writes BENCH_perf.json —
//
//   serial    jobs=1, one point after another on this thread;
//   parallel  SPRWL_BENCH_JOBS (default: hardware concurrency) pool over
//             the same points.
//
// Besides the wall-clock trajectory (points/sec, context switches/sec) it
// byte-compares the serial and parallel bench output and fails if they
// differ — the parallel runner must not change a single byte. The serial
// rows (virtual time only) also go to BENCH_perf_fig34.txt, which CI
// compares with a committed golden (bench/golden/). The JSON records the
// command-line arguments, the source revision and the host's core count,
// so runs from different commits and hosts can be told apart.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/support/fig34_suites.h"
#include "bench/support/json.h"

namespace sprwl::bench {
namespace {

struct ModeResult {
  std::string name;
  int jobs = 1;
  double wall_s = 0;
  std::uint64_t points = 0;
  std::uint64_t switches = 0;
  std::uint64_t direct_switches = 0;
  std::string output;

  double points_per_sec() const { return wall_s > 0 ? points / wall_s : 0; }
  double switches_per_sec() const {
    return wall_s > 0 ? static_cast<double>(switches) / wall_s : 0;
  }
};

ModeResult run_mode(const char* name, int jobs, const Args& args) {
  ModeResult r;
  r.name = name;
  r.jobs = jobs;
  SeriesOptions opt;
  opt.out = [&r](const std::string& s) { r.output += s; };
  opt.observe = [&r](const SeriesPoint& pt) {
    ++r.points;
    r.switches += pt.sim_stats.switches;
    r.direct_switches += pt.sim_stats.direct_switches;
  };
  const auto t0 = std::chrono::steady_clock::now();
  {
    Runner runner(jobs);
    fig3_suite(runner, args, opt);
    fig4_suite(runner, args, opt);
    runner.drain();
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  std::printf("%-10s  jobs=%-3d  %8.2fs  %6.2f points/s  %11.3e switches/s\n",
              r.name.c_str(), r.jobs, r.wall_s, r.points_per_sec(),
              r.switches_per_sec());
  std::fflush(stdout);
  return r;
}

/// `git describe --always --dirty` of the source tree the binary was built
/// from, or "unknown" outside a git checkout.
std::string source_revision() {
  std::string rev;
  if (std::FILE* p = popen("git -C \"" SPRWL_SOURCE_DIR
                           "\" describe --always --dirty 2>/dev/null",
                           "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) rev += buf;
    pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

bool write_text(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int run(const Args& args) {
  const int par_jobs = Runner::jobs_from_env();
  std::printf(
      "perf_pipeline — fig3+fig4 suite wall-clock (SPRWL_BENCH_JOBS=%d)\n",
      par_jobs);
  std::fflush(stdout);

  const ModeResult serial = run_mode("serial", 1, args);
  const ModeResult parallel = run_mode("parallel", par_jobs, args);
  const bool identical = serial.output == parallel.output;
  std::printf("\nserial/parallel output byte-identical: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");

  JsonWriter j;
  j.begin_object();
  j.key("bench").value("perf_pipeline");
  j.key("suite").value("fig3+fig4");
  j.key("args").begin_object();
  j.key("profile").value(args.profile);
  j.key("full").value(args.full);
  j.key("measure").value(args.measure_cycles);
  j.key("seed").value(args.seed);
  j.end_object();
  j.key("git_rev").value(source_revision());
  j.key("host_nproc")
      .value(static_cast<int>(std::thread::hardware_concurrency()));
  j.key("jobs").value(par_jobs);
  j.key("modes").begin_array();
  for (const ModeResult* m : {&serial, &parallel}) {
    j.begin_object();
    j.key("name").value(m->name);
    j.key("jobs").value(m->jobs);
    j.key("wall_seconds").value(m->wall_s);
    j.key("points").value(m->points);
    j.key("points_per_sec").value(m->points_per_sec());
    j.key("switches").value(m->switches);
    j.key("direct_switches").value(m->direct_switches);
    j.key("switches_per_sec").value(m->switches_per_sec());
    j.end_object();
  }
  j.end_array();
  j.key("outputs_identical").value(identical);
  j.end_object();
  if (!j.write_file("BENCH_perf.json")) {
    std::fprintf(stderr, "failed to write BENCH_perf.json\n");
    return 2;
  }
  if (!write_text("BENCH_perf_fig34.txt", serial.output)) {
    std::fprintf(stderr, "failed to write BENCH_perf_fig34.txt\n");
    return 2;
  }
  std::printf("wrote BENCH_perf.json and BENCH_perf_fig34.txt\n");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  return sprwl::bench::run(sprwl::bench::Args::parse(argc, argv));
}

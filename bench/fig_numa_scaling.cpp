// NUMA scaling of SpRWL reader tracking (DESIGN.md §11): sweeps simulated
// sockets × thread counts on the read-heavy hash-map workload with the
// default per-thread state array — the writer's commit scan reads
// ceil(threads/8) flag lines, most owned by remote sockets at scale.
//
// Every point runs with line-owner tracking on, so loads/stores/CAS pay
// the topology-aware coherence extras (CostModel::remote_socket /
// remote_cross). Because single-run throughput of this system is chaotic
// (a ±3% swing from any perturbed escalation), every point is the mean
// over a seed set; per-seed values are kept in the JSON. The identity
// check — 1-socket runs with tracking forced on are byte-identical to the
// plain defaults (remote_socket = 0 keeps the model a strict no-op
// off-NUMA) — lands in BENCH_numa.json as `outputs_identical`.
//
// A second sweep covers the BRAVO reader table (DESIGN.md §16) ×
// {migratory, home-directory} ownership models × sockets, read-mostly. The
// table's layout follows the topology: one global slot array on one
// socket, per-socket shards on more. Check: the 1-socket home-directory
// rows are byte-identical to the migratory ones
// (`bravo_identity_1socket`). `--smoke` shrinks every sweep for CI. Exit
// status is non-zero if either identity check fails.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/support/hashmap_fig.h"
#include "bench/support/json.h"
#include "common/costs.h"
#include "core/bravo.h"

namespace sprwl::bench {
namespace {

struct NumaRun {
  std::uint64_t seed = 0;
  std::uint64_t remote_cross = 0;  // cost active during the run
  workloads::RunResult run;
  std::uint64_t scan_cycles = 0;  // passing commit scans, virtual cycles
  std::uint64_t scans = 0;
};

/// One (sockets, threads, lock) point: per-seed runs plus their means.
struct NumaPoint {
  int sockets = 1;
  int threads = 0;
  std::string lock;  // "flat" | "bravo-global" (1 socket) | "bravo-sharded"
  std::string model = "migratory";  // CostModel::ownership during the run
  std::vector<NumaRun> runs;

  double mean_tx_s() const {
    double s = 0;
    for (const NumaRun& r : runs) s += r.run.throughput_tx_s();
    return runs.empty() ? 0 : s / static_cast<double>(runs.size());
  }
  double mean_scan_cycles() const {
    double s = 0;
    for (const NumaRun& r : runs) s += static_cast<double>(r.scan_cycles);
    return runs.empty() ? 0 : s / static_cast<double>(runs.size());
  }
  double mean_scan_cycles_per_scan() const {
    std::uint64_t c = 0, n = 0;
    for (const NumaRun& r : runs) {
      c += r.scan_cycles;
      n += r.scans;
    }
    return n > 0 ? static_cast<double>(c) / static_cast<double>(n) : 0.0;
  }
};

/// Submits one (sockets, threads, seed) run. Like hashmap_series, but the
/// engine carries the socket topology (and forced owner tracking) —
/// SeriesOptions has no engine hook, and the scan counters live on
/// SpRWLock, not in LockStats.
void numa_run(Runner& runner, const Machine& m, HashmapFigParams p,
              int sockets, int n, bool track_owners,
              std::uint64_t seed,
              const std::function<void(const std::string&)>& out,
              const std::function<void(const NumaRun&)>& observe) {
  p.seed = seed;
  auto run = std::make_shared<NumaRun>();
  run->seed = seed;
  runner.submit(
      [run, m, p, n, sockets, track_owners] {
        run->remote_cross = g_costs.remote_cross;
        htm::EngineConfig ec;
        ec.capacity = m.capacity_at(n);
        ec.max_threads = n;
        ec.seed = p.seed;
        ec.topology = sim::Topology::split(n, sockets);
        ec.track_line_owners = track_owners;
        htm::Engine engine(ec);
        workloads::HashMap map = make_figure_map(p, n);
        const core::Config c =
            core::Config::variant(core::SchedulingVariant::kFull, n);
        // Cache-aligned for the same reason workload pools use
        // aligned_vector (common/aligned.h): Shared<> words embedded in
        // the lock are charged by address, and a stack frame's offset
        // mod 64 varies with ASLR — unaligned, the run would not be
        // reproducible.
        alignas(kCacheLineSize) core::SpRWLock lock(c);
        workloads::DriverConfig dc;
        dc.threads = n;
        dc.update_ratio = p.update_ratio;
        dc.lookups_per_read = p.lookups_per_read;
        dc.key_space = p.key_space;
        dc.warmup_cycles = p.warmup_cycles;
        dc.measure_cycles = p.measure_cycles;
        dc.seed = p.seed;
        sim::Simulator sim;
        run->run = run_hashmap(sim, engine, lock, map, dc);
        run->scan_cycles = lock.commit_scan_cycles();
        run->scans = lock.commit_scan_count();
      },
      [run, sockets, n, out, observe] {
        if (out) {
          const workloads::RunResult& r = run->run;
          const Breakdown b =
              make_breakdown(r.engine_stats, r.lock_stats, r.reader_aborts);
          const std::string name = "flat/" + std::to_string(sockets) + "s";
          out(format_series_row(name.c_str(), n, r.throughput_tx_s(), b,
                                r.read_latency.mean(),
                                r.write_latency.mean()));
        }
        if (observe) observe(*run);
      });
}

/// Submits one BRAVO (sockets, seed) run: the read-mostly hash-map workload
/// under a bias-enabled SpRWLock whose ReaderTable follows the topology —
/// one global slot array on one socket, per-socket shards on more. The run
/// inherits whatever g_costs.ownership is active when the batch executes —
/// the caller owns setting/restoring the model around a drained batch.
void bravo_run(Runner& runner, const Machine& m, HashmapFigParams p,
               int sockets, int n, std::uint64_t seed,
               const std::function<void(const std::string&)>& out,
               const std::function<void(const NumaRun&)>& observe) {
  p.seed = seed;
  auto run = std::make_shared<NumaRun>();
  run->seed = seed;
  runner.submit(
      [run, m, p, n, sockets] {
        run->remote_cross = g_costs.remote_cross;
        htm::EngineConfig ec;
        ec.capacity = m.capacity_at(n);
        ec.max_threads = n;
        ec.seed = p.seed;
        ec.topology = sim::Topology::split(n, sockets);
        ec.track_line_owners = true;
        htm::Engine engine(ec);
        workloads::HashMap map = make_figure_map(p, n);
        bravo::ReaderTable::Config bc;
        bc.max_threads = n;
        bc.topology = ec.topology;
        auto table = std::make_shared<bravo::ReaderTable>(bc);
        core::Config c =
            core::Config::variant(core::SchedulingVariant::kFull, n);
        c.reader_htm_first = false;
        c.bravo_bias = true;
        c.bravo_table = table;
        // Cache-aligned (see numa_run): the bias fast path charges the
        // lock's embedded bias word on every read, so an ASLR-shifted
        // stack frame would perturb line grouping and break run-to-run
        // bit determinism.
        alignas(kCacheLineSize) core::SpRWLock lock(c);
        workloads::DriverConfig dc;
        dc.threads = n;
        dc.update_ratio = p.update_ratio;
        dc.lookups_per_read = p.lookups_per_read;
        dc.key_space = p.key_space;
        dc.warmup_cycles = p.warmup_cycles;
        dc.measure_cycles = p.measure_cycles;
        dc.seed = p.seed;
        sim::Simulator sim;
        run->run = run_hashmap(sim, engine, lock, map, dc);
        run->scan_cycles = lock.commit_scan_cycles();
        run->scans = lock.commit_scan_count();
      },
      [run, sockets, n, out, observe] {
        if (out) {
          const workloads::RunResult& r = run->run;
          const Breakdown b =
              make_breakdown(r.engine_stats, r.lock_stats, r.reader_aborts);
          const std::string name = "bravo/" + std::to_string(sockets) + "s";
          out(format_series_row(name.c_str(), n, r.throughput_tx_s(), b,
                                r.read_latency.mean(),
                                r.write_latency.mean()));
        }
        if (observe) observe(*run);
      });
}

void json_point(JsonWriter& j, const NumaPoint& pt) {
  j.begin_object();
  j.key("sockets").value(pt.sockets);
  j.key("threads").value(pt.threads);
  j.key("lock").value(pt.lock);
  j.key("model").value(pt.model);
  j.key("mean_tx_s").value(pt.mean_tx_s());
  j.key("mean_scan_cycles").value(pt.mean_scan_cycles());
  j.key("scan_cycles_per_scan").value(pt.mean_scan_cycles_per_scan());
  j.key("runs").begin_array();
  for (const NumaRun& r : pt.runs) {
    j.begin_object();
    j.key("seed").value(r.seed);
    j.key("remote_cross").value(r.remote_cross);
    j.key("tx_s").value(r.run.throughput_tx_s());
    j.key("scan_cycles").value(r.scan_cycles);
    j.key("scans").value(r.scans);
    j.key("socket_transfers").value(r.run.engine_stats.socket_transfers);
    j.key("cross_transfers").value(r.run.engine_stats.cross_transfers);
    j.key("invalidations").value(r.run.engine_stats.invalidations);
    j.key("reader_aborts").value(r.run.reader_aborts);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

int run(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, /*has_smoke=*/true);
  const bool smoke = args.smoke;
  const Machine m = broadwell_machine();
  HashmapFigParams p = machine_params(m, args);
  if (args.measure_cycles == 0 && !args.full) {
    p.measure_cycles = smoke ? 200'000 : 2'000'000;
  }
  const std::vector<int> sockets = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4};
  const std::vector<int> threads = smoke ? std::vector<int>{2, 8}
                                         : std::vector<int>{1, 8, 16, 32, 64};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{42, 7}
            : std::vector<std::uint64_t>{42, 7, 1234, 5, 99};
  const int jobs = Runner::jobs_from_env();
  std::printf("fig_numa_scaling — %s, measure=%llu, seeds=%zu, jobs=%d%s\n",
              m.name, static_cast<unsigned long long>(p.measure_cycles),
              seeds.size(), jobs, smoke ? " (smoke)" : "");

  // Identity: 1-socket, owner tracking forced on vs. the plain defaults.
  // remote_socket defaults to 0 and a 1-socket topology never crosses, so
  // the tracked run must reproduce the untracked rows byte for byte.
  std::string tracked_rows;
  std::string plain_rows;
  {
    Runner runner(jobs);
    for (const int n : threads) {
      numa_run(runner, m, p, 1, n, true, args.seed,
               [&tracked_rows](const std::string& s) { tracked_rows += s; },
               {});
      numa_run(runner, m, p, 1, n, false, args.seed,
               [&plain_rows](const std::string& s) { plain_rows += s; }, {});
    }
    runner.drain();
  }
  const bool identical = tracked_rows == plain_rows;
  std::fputs(format_series_header().c_str(), stdout);
  std::fputs(tracked_rows.c_str(), stdout);
  std::printf("1-socket tracked output identical to defaults: %s\n",
              identical ? "yes" : "NO — COST MODEL NOT A NO-OP");

  // Main sweep: sockets x threads, seed-averaged, at default costs.
  std::vector<NumaPoint> points;
  // Observe lambdas capture &points.back(); reserve so emplace_back never
  // reallocates under them.
  points.reserve(sockets.size() * threads.size());
  {
    Runner runner(jobs);
    for (const int s : sockets) {
      for (const int n : threads) {
        points.emplace_back();
        NumaPoint& pt = points.back();
        pt.sockets = s;
        pt.threads = n;
        pt.lock = "flat";
        for (const std::uint64_t seed : seeds) {
          numa_run(runner, m, p, s, n, true, seed, {},
                   [&pt](const NumaRun& r) { pt.runs.push_back(r); });
        }
      }
    }
    runner.drain();
  }
  std::printf("\n%-12s %4s | %12s | %14s | %14s\n", "lock", "thr",
              "mean tx/s", "scan cyc/scan", "scan cyc/run");
  for (const NumaPoint& pt : points) {
    std::printf("%-9s %2ds %4d | %12.4e | %14.1f | %14.0f\n", pt.lock.c_str(),
                pt.sockets, pt.threads, pt.mean_tx_s(),
                pt.mean_scan_cycles_per_scan(), pt.mean_scan_cycles());
  }

  // BRAVO sweep: {migratory, home-directory} ownership × sockets,
  // read-mostly so the bias fast path (slot publish/clear) carries the
  // traffic. On 2+ sockets the table is sharded, which confines each
  // socket's readers to socket-local slot lines and the writer's drain to
  // one summary line per clean shard. g_costs.ownership is process-global,
  // so each model gets its own drained batch. The first-seed 1-socket rows
  // are collected per model: home-directory prices only cross-socket
  // sharing, so on one socket it must reproduce the migratory rows byte
  // for byte.
  const int bt = smoke ? 8 : 32;
  HashmapFigParams bp = p;
  bp.update_ratio = 0.02;
  // Short read sections (one lookup, ~8-node chains): shrinking the
  // data-line cost makes the slot-line traffic first-order instead of
  // noise under the long-chain figure geometry.
  bp.lookups_per_read = 1;
  bp.buckets = 4096;
  std::vector<NumaPoint> bravo;
  bravo.reserve(sockets.size() * 2);
  std::string bravo_rows[2];  // [0]=migratory, [1]=home-directory, 1-socket
  {
    const CostModel::OwnershipModel def_model = g_costs.ownership;
    for (const int mi : {0, 1}) {
      g_costs.ownership =
          mi == 0 ? CostModel::kMigratory : CostModel::kHomeDirectory;
      const char* model = mi == 0 ? "migratory" : "home-directory";
      std::string* id_rows = &bravo_rows[mi];
      Runner runner(jobs);
      for (const int s : sockets) {
        bravo.emplace_back();
        NumaPoint& pt = bravo.back();
        pt.sockets = s;
        pt.threads = bt;
        pt.lock = s > 1 ? "bravo-sharded" : "bravo-global";
        pt.model = model;
        for (const std::uint64_t seed : seeds) {
          std::function<void(const std::string&)> out;
          if (s == 1 && seed == seeds.front())
            out = [id_rows](const std::string& r) { *id_rows += r; };
          bravo_run(runner, m, bp, s, bt, seed, out,
                    [&pt](const NumaRun& r) { pt.runs.push_back(r); });
        }
      }
      runner.drain();
    }
    g_costs.ownership = def_model;
  }
  const bool bravo_identity = bravo_rows[0] == bravo_rows[1];
  std::printf("\n%-14s %-14s %2s | %12s | %14s\n", "bravo table", "model",
              "s", "mean tx/s", "scan cyc/scan");
  for (const NumaPoint& pt : bravo) {
    std::printf("%-14s %-14s %2d | %12.4e | %14.1f\n", pt.lock.c_str(),
                pt.model.c_str(), pt.sockets, pt.mean_tx_s(),
                pt.mean_scan_cycles_per_scan());
  }
  std::printf("1-socket home-directory rows identical to migratory: %s\n",
              bravo_identity ? "yes" : "NO — MODEL NOT A 1-SOCKET NO-OP");

  JsonWriter j;
  j.begin_object();
  j.key("bench").value("fig_numa_scaling");
  j.key("machine").value(m.name);
  j.key("smoke").value(smoke);
  j.key("measure_cycles").value(p.measure_cycles);
  j.key("seeds").begin_array();
  for (const std::uint64_t s : seeds) j.value(s);
  j.end_array();
  j.key("costs").begin_object();
  j.key("remote_socket").value(g_costs.remote_socket);
  j.key("remote_cross").value(g_costs.remote_cross);
  j.end_object();
  j.key("outputs_identical").value(identical);
  j.key("points").begin_array();
  for (const NumaPoint& pt : points) json_point(j, pt);
  j.end_array();
  j.key("bravo_points").begin_array();
  for (const NumaPoint& pt : bravo) json_point(j, pt);
  j.end_array();
  j.key("bravo_identity_1socket").value(bravo_identity);
  j.end_object();
  if (!j.write_file("BENCH_numa.json")) {
    std::fprintf(stderr, "failed to write BENCH_numa.json\n");
    return 2;
  }
  std::printf("wrote BENCH_numa.json\n");
  return identical && bravo_identity ? 0 : 1;
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) { return sprwl::bench::run(argc, argv); }

// check_schedules — CLI driver for the systematic concurrency checker.
//
// Modes (combinable; default is --dfs --pct over every registered lock):
//   --dfs            bounded-exhaustive DFS with sleep sets
//   --pct            PCT randomized exploration (--runs schedules per lock)
//   --replay FILE    replay a CHECK_repro_<seed>.json artifact
//
// Options:
//   --lock NAME      check one lock (registry name, e.g. SpRWL, TLE, RWL;
//                    SpRWL-broken selects the deliberately broken variant)
//   --runs N         PCT runs per lock (default 200)
//   --seed N         PCT base seed (default: SPRWL_SEED or 1)
//   --threads N --writers N --ops N   workload shape (defaults 3/1/1)
//   --artifact-dir D where CHECK_repro_<seed>.json goes (default ".")
//
// Exit status: 0 when everything passes (or a replayed artifact still
// reproduces its recorded verdict class), 1 on a new violation, 2 on usage
// errors: an unknown option, a missing value, a number that is not a plain
// decimal or overflows, --threads below 1, or --writers above --threads.
// CI compares the 2- and 3-thread DFS output with bench/golden/, runs a
// PCT seed matrix and uploads any CHECK_repro_*.json on failure.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/support/check_cli.h"
#include "check/artifact.h"
#include "check/explorer.h"
#include "check/harness.h"
#include "check/registry.h"

namespace sprwl::check {
namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dfs] [--pct] [--replay FILE] [--lock NAME]\n"
               "          [--runs N] [--seed N] [--threads N] [--writers N]\n"
               "          [--ops N] [--artifact-dir DIR]\n",
               argv0);
  return 2;
}

void report(const char* mode, const std::string& lock,
            const ExploreReport& rep) {
  if (rep.found_violation) {
    std::printf("%-14s %-12s FAIL  %s: %s\n", lock.c_str(), mode,
                to_string(rep.verdict.kind), rep.verdict.detail.c_str());
    if (!rep.artifact_path.empty()) {
      std::printf("  repro (%zu decisions) written to %s\n", rep.repro.size(),
                  rep.artifact_path.c_str());
      std::printf("  replay: check_schedules --replay %s\n",
                  rep.artifact_path.c_str());
    }
  } else {
    const bool is_dfs = std::strcmp(mode, "dfs") == 0;
    std::printf("%-14s %-12s ok    %llu schedules, %llu pruned%s\n",
                lock.c_str(), mode,
                static_cast<unsigned long long>(rep.schedules),
                static_cast<unsigned long long>(rep.pruned),
                !is_dfs        ? ""
                : rep.exhausted ? ", exhausted"
                                : ", run cap reached");
  }
}

int run_replay(const bench::CheckCli& cli) {
  ReproArtifact a;
  if (!read_artifact(cli.replay_file, &a)) {
    std::fprintf(stderr, "cannot parse artifact: %s\n",
                 cli.replay_file.c_str());
    return 2;
  }
  std::printf("replaying %s: lock=%s policy=%s seed=%llu (%zu decisions)\n",
              cli.replay_file.c_str(), a.lock.c_str(), a.policy.c_str(),
              static_cast<unsigned long long>(a.seed), a.choices.size());
  std::printf("recorded violation: %s\n", a.violation.c_str());
  const Verdict v = replay_trace(make_runner(a.lock, a.workload), a.choices);
  std::printf("replay verdict: %s%s%s\n", to_string(v.kind),
              v.detail.empty() ? "" : ": ", v.detail.c_str());
  if (!v.violation()) {
    std::printf("the recorded schedule no longer violates (fixed?)\n");
    return 0;
  }
  return 0;  // reproducing a recorded violation is the expected outcome
}

}  // namespace

int run_main(int argc, char** argv) {
  const std::optional<bench::CheckCli> parsed =
      bench::parse_check_cli(argc, argv);
  if (!parsed) return usage(argv[0]);
  bench::CheckCli cli = *parsed;
  if (!cli.replay_file.empty()) return run_replay(cli);
  if (!cli.dfs && !cli.pct) cli.dfs = cli.pct = true;

  std::vector<std::string> locks;
  if (!cli.lock.empty()) {
    locks.push_back(cli.lock);
  } else {
    locks = checked_locks();
  }

  bool violated = false;
  for (const std::string& name : locks) {
    const RunFn run = make_runner(name, cli.workload);
    ExploreOptions opt;
    opt.seed = cli.seed;
    opt.lock_name = name;
    opt.artifact_dir = cli.artifact_dir;
    if (cli.dfs) {
      const ExploreReport rep = explore_dfs(run, cli.workload, opt);
      report("dfs", name, rep);
      violated |= rep.found_violation;
    }
    if (cli.pct) {
      ExploreOptions popt = opt;
      popt.max_runs = cli.runs;
      const ExploreReport rep = explore_pct(run, cli.workload, popt);
      report("pct", name, rep);
      violated |= rep.found_violation;
    }
  }
  if (violated) {
    std::printf("\nviolations found; SPRWL_SEED=%llu to replay the pct "
                "matrix, or use the CHECK_repro artifact above\n",
                static_cast<unsigned long long>(cli.seed));
  }
  return violated ? 1 : 0;
}

}  // namespace sprwl::check

int main(int argc, char** argv) {
  return sprwl::check::run_main(argc, argv);
}

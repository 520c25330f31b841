// The checker applied to the whole lock family: exclusion and
// linearizability under PCT for every registered lock, the
// bounded-exhaustive acceptance run on SpRWL, and the self-validation that
// a deliberately broken SpRWL is caught with a minimized, deterministic
// repro.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/artifact.h"
#include "check/explorer.h"
#include "check/harness.h"
#include "check/registry.h"
#include "fault/fault.h"

#include "../support/seed_replay.h"

namespace sprwl::check {
namespace {

TEST(CheckerLocks, EveryLockPassesPctReaderHeavy) {
  const std::uint64_t seed = fault::env_seed(1);
  Workload w;  // 2 readers / 1 writer
  w.ops_per_thread = 2;
  ExploreOptions opt;
  opt.seed = seed;
  opt.max_runs = 25;
  for (const std::string& name : checked_locks()) {
    SCOPED_TRACE(name + "; " + testutil::seed_replay(seed));
    const ExploreReport rep = explore_pct(make_runner(name, w), w, opt);
    EXPECT_EQ(rep.schedules, opt.max_runs);
    EXPECT_FALSE(rep.found_violation)
        << to_string(rep.verdict.kind) << ": " << rep.verdict.detail;
  }
}

TEST(CheckerLocks, EveryLockPassesPctWriterHeavy) {
  const std::uint64_t seed = fault::env_seed(2);
  Workload w;
  w.threads = 3;
  w.writers = 2;  // exclusion stress: two increments racing one reader
  w.ops_per_thread = 2;
  ExploreOptions opt;
  opt.seed = seed;
  opt.max_runs = 25;
  for (const std::string& name : checked_locks()) {
    SCOPED_TRACE(name + "; " + testutil::seed_replay(seed));
    const ExploreReport rep = explore_pct(make_runner(name, w), w, opt);
    EXPECT_FALSE(rep.found_violation)
        << to_string(rep.verdict.kind) << ": " << rep.verdict.detail;
  }
}

// The issue's acceptance bar: bounded-exhaustive DFS over 3-thread SpRWL
// (2 readers / 1 writer, kFull scheduling) terminates, reports how many
// distinct schedules it covered, and finds no violation.
TEST(CheckerLocks, AcceptanceDfsSpRWLFull) {
  const Workload w;  // defaults: 3 threads, 1 writer, 1 op each
  ExploreOptions opt;
  const ExploreReport rep = explore_dfs(make_runner("SpRWL", w), w, opt);
  EXPECT_TRUE(rep.exhausted) << "DFS did not exhaust the bounded tree";
  EXPECT_GT(rep.schedules, 1u);
  EXPECT_FALSE(rep.found_violation)
      << to_string(rep.verdict.kind) << ": " << rep.verdict.detail;
  ::testing::Test::RecordProperty(
      "dfs_schedules", static_cast<int>(rep.schedules));
  ::testing::Test::RecordProperty("dfs_pruned", static_cast<int>(rep.pruned));
}

// Self-validation: SpRWL with the broken commit-time reader scan (skips
// reader tid 0) must be caught, the failing schedule minimized, the
// artifact round-tripped, and the repro deterministic.
TEST(CheckerLocks, BrokenScanCaughtWithMinimizedDeterministicRepro) {
  const Workload w;
  ExploreOptions opt;
  opt.lock_name = broken_lock_name();
  opt.artifact_dir = ::testing::TempDir();
  opt.seed = 99;
  const RunFn run = make_runner(broken_lock_name(), w);
  const ExploreReport rep = explore_dfs(run, w, opt);

  ASSERT_TRUE(rep.found_violation)
      << "the checker missed the deliberately broken scan";
  EXPECT_EQ(rep.verdict.kind, Verdict::kTorn) << rep.verdict.detail;
  ASSERT_FALSE(rep.repro.empty());

  // Deterministic replay: the minimized trace reproduces the violation on
  // every attempt.
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);

  // Artifact round-trip, and a replay driven purely from the file: the
  // one-command repro path (check_schedules --replay) uses exactly this.
  ASSERT_FALSE(rep.artifact_path.empty());
  ReproArtifact a;
  ASSERT_TRUE(read_artifact(rep.artifact_path, &a)) << rep.artifact_path;
  EXPECT_EQ(a.lock, broken_lock_name());
  EXPECT_EQ(a.policy, "dfs");
  EXPECT_EQ(a.choices, rep.repro);
  EXPECT_EQ(a.workload.threads, w.threads);
  EXPECT_EQ(a.workload.writers, w.writers);
  const Verdict from_file =
      replay_trace(make_runner(a.lock, a.workload), a.choices);
  EXPECT_EQ(from_file.kind, Verdict::kTorn) << from_file.detail;
  std::remove(rep.artifact_path.c_str());
}

TEST(CheckerLocks, UnknownLockNameIsRejected) {
  EXPECT_THROW(make_runner("NoSuchLock", Workload{}), std::invalid_argument);
}

// The global-reader-bias acceptance bar: 2-thread bounded-exhaustive DFS
// over the bravo variant (bias starts on; a fresh 8-slot shared table per
// schedule) terminates with no violation — covering fast-path publishes
// racing revocation drains and the re-bias CAS.
TEST(CheckerLocks, AcceptanceDfsSpRWLBravoTwoThreads) {
  Workload w;
  w.threads = 2;
  w.writers = 1;
  ExploreOptions opt;
  const ExploreReport rep = explore_dfs(make_runner("SpRWL-bravo", w), w, opt);
  EXPECT_TRUE(rep.exhausted) << "DFS did not exhaust the bounded tree";
  EXPECT_GT(rep.schedules, 1u);
  EXPECT_FALSE(rep.found_violation)
      << to_string(rep.verdict.kind) << ": " << rep.verdict.detail;
  ::testing::Test::RecordProperty(
      "bravo_dfs_schedules", static_cast<int>(rep.schedules));
}

// Self-validation for the revocation drain: with a one-slot table and a
// drain that skips the table's last slot, revocation waits for nobody — a
// fast-path reader parked in slot 0 survives it and the writer commits
// over the reader's snapshot. The checker must catch it, minimize it, and
// round-trip the artifact exactly like the broken commit scan.
TEST(CheckerLocks, BravoBrokenRevokeCaughtWithDeterministicRepro) {
  const Workload w;
  ExploreOptions opt;
  opt.lock_name = "SpRWL-bravo-broken";
  opt.artifact_dir = ::testing::TempDir();
  opt.seed = 123;
  const RunFn run = make_runner("SpRWL-bravo-broken", w);
  const ExploreReport rep = explore_dfs(run, w, opt);

  ASSERT_TRUE(rep.found_violation)
      << "the checker missed the broken revocation drain";
  EXPECT_EQ(rep.verdict.kind, Verdict::kTorn) << rep.verdict.detail;
  ASSERT_FALSE(rep.repro.empty());
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);

  ASSERT_FALSE(rep.artifact_path.empty());
  ReproArtifact a;
  ASSERT_TRUE(read_artifact(rep.artifact_path, &a)) << rep.artifact_path;
  EXPECT_EQ(a.lock, "SpRWL-bravo-broken");
  EXPECT_EQ(a.choices, rep.repro);
  const Verdict from_file =
      replay_trace(make_runner(a.lock, a.workload), a.choices);
  EXPECT_EQ(from_file.kind, Verdict::kTorn) << from_file.detail;
  std::remove(rep.artifact_path.c_str());
}

// The NUMA-sharded-table acceptance bar: 2-thread bounded-exhaustive DFS
// over the socket-sharded bravo variant — the checker threads split over
// two simulated sockets, so the reader's fast-path publish (slot CAS +
// shard summary bump) lands in shard 0 while the writer's revocation
// drain walks both shards summary-first. Exhausting clean covers the
// Dekker race the clean-shard skip leans on: a drain reading summary 0
// concurrent with a reader between its slot CAS and its bias validation.
TEST(CheckerLocks, AcceptanceDfsSpRWLBravoNumaTwoThreads) {
  Workload w;
  w.threads = 2;
  w.writers = 1;
  ExploreOptions opt;
  const ExploreReport rep =
      explore_dfs(make_runner("SpRWL-bravo-numa", w), w, opt);
  EXPECT_TRUE(rep.exhausted) << "DFS did not exhaust the bounded tree";
  EXPECT_GT(rep.schedules, 1u);
  EXPECT_FALSE(rep.found_violation)
      << to_string(rep.verdict.kind) << ": " << rep.verdict.detail;
  ::testing::Test::RecordProperty(
      "bravo_numa_dfs_schedules", static_cast<int>(rep.schedules));
}

// Self-validation for the sharded drain: a drain blinded to shard 0 —
// summary and slots — never waits for the socket-0 reader's fast-path
// registration, so the writer commits over the reader's snapshot. The
// checker must catch it, ddmin must minimize it, and the artifact must
// round-trip and replay deterministically, like the global-table broken
// drain. Guards the per-shard summary skip against ever hiding a remote
// socket's readers.
TEST(CheckerLocks, BravoNumaBrokenDrainCaughtWithDeterministicRepro) {
  const Workload w;
  ExploreOptions opt;
  opt.lock_name = "SpRWL-bravo-numa-broken";
  opt.artifact_dir = ::testing::TempDir();
  opt.seed = 123;
  const RunFn run = make_runner("SpRWL-bravo-numa-broken", w);
  const ExploreReport rep = explore_dfs(run, w, opt);

  ASSERT_TRUE(rep.found_violation)
      << "the checker missed the shard-blinded revocation drain";
  EXPECT_EQ(rep.verdict.kind, Verdict::kTorn) << rep.verdict.detail;
  ASSERT_FALSE(rep.repro.empty());
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);

  ASSERT_FALSE(rep.artifact_path.empty());
  ReproArtifact a;
  ASSERT_TRUE(read_artifact(rep.artifact_path, &a)) << rep.artifact_path;
  EXPECT_EQ(a.lock, "SpRWL-bravo-numa-broken");
  EXPECT_EQ(a.choices, rep.repro);
  const Verdict from_file =
      replay_trace(make_runner(a.lock, a.workload), a.choices);
  EXPECT_EQ(from_file.kind, Verdict::kTorn) << from_file.detail;
  std::remove(rep.artifact_path.c_str());
}

// The cancellation acceptance bar: 2-thread bounded-exhaustive DFS over
// the timed variant. Each reader alternates an immediately expiring budget
// (the occupy-expire-release unwind runs on every schedule) with a
// comfortable one (the acquired path runs too), so the tree covers timeout
// unwinds racing writer revocations in both orders. Exhausting clean means
// no interleaving leaves a phantom reader wedging a writer (livelock) or a
// half-released slot tearing a snapshot.
TEST(CheckerLocks, AcceptanceDfsSpRWLTimeoutTwoThreads) {
  Workload w;
  w.threads = 2;
  w.writers = 1;
  w.ops_per_thread = 2;
  ExploreOptions opt;
  const ExploreReport rep = explore_dfs(make_runner("SpRWL-timeout", w), w, opt);
  EXPECT_TRUE(rep.exhausted) << "DFS did not exhaust the bounded tree";
  EXPECT_GT(rep.schedules, 1u);
  EXPECT_FALSE(rep.found_violation)
      << to_string(rep.verdict.kind) << ": " << rep.verdict.detail;
  ::testing::Test::RecordProperty(
      "timeout_dfs_schedules", static_cast<int>(rep.schedules));
}

// Self-validation for the cancellation unwind: the timed bias read's
// timeout path skips the ReaderTable slot release, so the expired reader
// leaves a ghost occupant behind and the next writer's revocation drain
// waits on it forever. The checker must report it as a livelock, and the
// artifact must round-trip — including through make_runner, which
// re-applies the timed workload settings from the lock name. Unlike the
// torn-read repros, the leak is unconditional (budget 1 expires on every
// schedule), so ddmin legitimately minimizes the trace to zero decisions;
// the replay must still reproduce the verdict from that empty trace.
TEST(CheckerLocks, TimeoutBrokenCaughtWithDeterministicRepro) {
  const Workload w;
  ExploreOptions opt;
  opt.lock_name = "SpRWL-timeout-broken";
  opt.artifact_dir = ::testing::TempDir();
  opt.seed = 123;
  const RunFn run = make_runner("SpRWL-timeout-broken", w);
  const ExploreReport rep = explore_dfs(run, w, opt);

  ASSERT_TRUE(rep.found_violation)
      << "the checker missed the leaked reader-table slot";
  EXPECT_EQ(rep.verdict.kind, Verdict::kLivelock) << rep.verdict.detail;
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);

  ASSERT_FALSE(rep.artifact_path.empty());
  ReproArtifact a;
  ASSERT_TRUE(read_artifact(rep.artifact_path, &a)) << rep.artifact_path;
  EXPECT_EQ(a.lock, "SpRWL-timeout-broken");
  EXPECT_EQ(a.choices, rep.repro);
  const Verdict from_file =
      replay_trace(make_runner(a.lock, a.workload), a.choices);
  EXPECT_EQ(from_file.kind, Verdict::kLivelock) << from_file.detail;
  std::remove(rep.artifact_path.c_str());
}

// The distributed-tier acceptance bar: 2-thread bounded-exhaustive DFS
// over the lease variant (one node per thread, so every write is a full
// cross-node lease handoff and the reader is a remote optimist running
// the version-validated copy loop) terminates with no violation. The
// lease term is effectively infinite here — controlled scheduling ignores
// clocks, so expiry fencing is out of scope (DESIGN.md §15); what the
// tree covers is grant serialization racing the seqlock claim/publish.
TEST(CheckerLocks, AcceptanceDfsSpRWLLeaseTwoThreads) {
  Workload w;
  w.threads = 2;
  w.writers = 1;
  ExploreOptions opt;
  const ExploreReport rep = explore_dfs(make_runner("SpRWL-lease", w), w, opt);
  EXPECT_TRUE(rep.exhausted) << "DFS did not exhaust the bounded tree";
  EXPECT_GT(rep.schedules, 1u);
  EXPECT_FALSE(rep.found_violation)
      << to_string(rep.verdict.kind) << ": " << rep.verdict.detail;
  ::testing::Test::RecordProperty(
      "lease_dfs_schedules", static_cast<int>(rep.schedules));
}

// Self-validation for the optimistic-read validation: with the version
// re-validation skipped, a reader whose copy straddles the writer's
// claim/publish window accepts a torn observation — the stale-lease read
// the dist tier's whole read protocol exists to reject. The checker must
// catch it, ddmin must minimize it, and the artifact must round-trip and
// replay deterministically, exactly like the other broken variants.
TEST(CheckerLocks, LeaseBrokenValidationCaughtWithDeterministicRepro) {
  const Workload w;
  ExploreOptions opt;
  opt.lock_name = "SpRWL-lease-broken";
  opt.artifact_dir = ::testing::TempDir();
  opt.seed = 123;
  const RunFn run = make_runner("SpRWL-lease-broken", w);
  const ExploreReport rep = explore_dfs(run, w, opt);

  ASSERT_TRUE(rep.found_violation)
      << "the checker missed the skipped read validation";
  EXPECT_EQ(rep.verdict.kind, Verdict::kTorn) << rep.verdict.detail;
  ASSERT_FALSE(rep.repro.empty());
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);

  ASSERT_FALSE(rep.artifact_path.empty());
  ReproArtifact a;
  ASSERT_TRUE(read_artifact(rep.artifact_path, &a)) << rep.artifact_path;
  EXPECT_EQ(a.lock, "SpRWL-lease-broken");
  EXPECT_EQ(a.choices, rep.repro);
  const Verdict from_file =
      replay_trace(make_runner(a.lock, a.workload), a.choices);
  EXPECT_EQ(from_file.kind, Verdict::kTorn) << from_file.detail;
  std::remove(rep.artifact_path.c_str());
}

// Workload deadline fields survive the artifact round-trip (needed when a
// repro is driven by explicit timed settings rather than a registry name
// that re-applies them).
TEST(CheckerLocks, ArtifactRoundTripsTimedWorkloadFields) {
  ReproArtifact a;
  a.lock = "SpRWL";
  a.policy = "dfs";
  a.seed = 42;
  a.workload.timed_reads = true;
  a.workload.read_deadlines = {1, 400000};
  a.violation = "none";
  const std::string path = write_artifact(a, ::testing::TempDir());
  ReproArtifact b;
  ASSERT_TRUE(read_artifact(path, &b)) << path;
  EXPECT_TRUE(b.workload.timed_reads);
  EXPECT_EQ(b.workload.read_deadlines, a.workload.read_deadlines);
  std::remove(path.c_str());
}

// PCT depth calibration: with calibration off the horizon is the static
// heuristic; with it on, the measured median plus the livelock stall
// allowance replaces it — deterministically for a fixed seed, and never
// below the allowance (change points must be able to land inside the
// stall-detection window or a late strict-priority starvation becomes a
// guaranteed false livelock).
TEST(CheckerLocks, PctCalibrationReplacesStaticHeuristic) {
  const Workload w;  // 3 threads, 1 op each
  const std::size_t heuristic = 3u * 1u * 32u + 16u;
  sim::SimConfig sc;
  const auto allowance =
      static_cast<std::size_t>(sc.resolved_no_progress_bound(w.threads));

  ExploreOptions off;
  off.seed = 5;
  off.max_runs = 8;
  off.calibration_runs = 0;
  const ExploreReport rep_off = explore_pct(make_runner("SpRWL", w), w, off);
  EXPECT_EQ(rep_off.calibrated_decisions, heuristic);
  EXPECT_FALSE(rep_off.found_violation);

  ExploreOptions on = off;
  on.calibration_runs = 5;
  const ExploreReport a = explore_pct(make_runner("SpRWL", w), w, on);
  const ExploreReport b = explore_pct(make_runner("SpRWL", w), w, on);
  EXPECT_GT(a.calibrated_decisions, allowance);
  EXPECT_EQ(a.calibrated_decisions, b.calibrated_decisions);
  EXPECT_EQ(a.schedules, on.max_runs);
  EXPECT_FALSE(a.found_violation);
}

// Registry DFS at 2 threads for every lock, run from a frame grown by
// `Pad` bytes: every stack object of the run — the harness's lock
// included — moves by Pad. noinline keeps the pad in a frame of its own.
template <std::size_t Pad>
[[gnu::noinline]] std::vector<std::uint64_t> dfs_counts_at_stack_offset() {
  volatile char pad[Pad];
  pad[0] = 0;
  Workload w;
  w.threads = 2;
  w.writers = 1;
  std::vector<std::uint64_t> counts;
  for (const std::string& name : checked_locks()) {
    const ExploreReport rep =
        explore_dfs(make_runner(name, w), w, ExploreOptions{});
    counts.push_back(rep.schedules);
  }
  pad[Pad - 1] = pad[0];
  return counts;
}

// The explored tree is a function of the lock's protocol, not of where the
// stack happens to sit: offsets 16..64 cover every 16-byte placement of
// the run's objects relative to a 64-byte line. Before the harness
// line-aligned the lock, SpRWL-bravo-numa's count moved with ASLR.
TEST(CheckerLocks, DfsCountsIndependentOfStackOffset) {
  const std::vector<std::uint64_t> base = dfs_counts_at_stack_offset<16>();
  const std::vector<std::string> names = checked_locks();
  const std::vector<std::vector<std::uint64_t>> shifted = {
      dfs_counts_at_stack_offset<32>(), dfs_counts_at_stack_offset<48>(),
      dfs_counts_at_stack_offset<64>()};
  for (const auto& counts : shifted) {
    ASSERT_EQ(counts.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
      EXPECT_EQ(counts[i], base[i]) << names[i];
  }
}

}  // namespace
}  // namespace sprwl::check

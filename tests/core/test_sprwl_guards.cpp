// The lock's entry-point guards and its commit-scan accounting: out-of-range
// thread ids and a missing engine throw instead of corrupting state or
// crashing, SNZI auto-sizing follows max_threads, and only commit-time
// reader scans that found no reader are sampled.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/platform.h"
#include "core/sprwl.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::core {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

// A dense id outside [0, max_threads) would index past the flag array. Both
// entry points must throw instead of asserting away the problem in release
// builds.
TEST(SpRWLGuards, ThreadIdOutOfRangeThrows) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 2);
  SpRWLock lock{cfg};
  ThreadIdScope tid(2);  // == max_threads: first invalid id
  EXPECT_THROW(lock.read(0, [] {}), std::out_of_range);
  EXPECT_THROW(lock.write(1, [] {}), std::out_of_range);
  ThreadIdScope far(1000);
  EXPECT_THROW(lock.read(0, [] {}), std::out_of_range);
}

TEST(SpRWLGuards, ValidThreadIdStillWorks) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 2);
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] { (void)x.v.load(); });
    } else {
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  EXPECT_EQ(x.v.raw_load(), 1u);
}

// Readers fall back to the uninstrumented path without an engine, but a
// writer has no HTM to commit in: it must throw, not dereference null.
TEST(SpRWLGuards, WriteWithoutEngineThrows) {
  ThreadIdScope tid(0);
  SpRWLock lock{Config::variant(SchedulingVariant::kNoSched, 1)};
  lock.read(0, [] {});
  EXPECT_THROW(lock.write(1, [] {}), std::logic_error);
}

// SNZI auto-sizing (snzi_levels = 0): the tree grows until the leaf row
// holds roughly max_threads / 2 slots, capped only at the tree's own
// kMaxLevels (past-256-thread cases live in test_bravo.cpp's regression).
TEST(SpRWLGuards, SnziAutoSizeTracksMaxThreads) {
  const struct {
    int max_threads;
    std::size_t leaves;
  } cases[] = {{1, 1}, {2, 1}, {64, 32}, {256, 128}};
  for (const auto& tc : cases) {
    Config c;
    c.max_threads = tc.max_threads;
    c.use_snzi = true;
    c.snzi_levels = 0;
    SpRWLock lock{c};
    EXPECT_EQ(lock.snzi_leaf_count(), tc.leaves)
        << "max_threads=" << tc.max_threads;
  }
  Config flat;  // no SNZI configured: no tree at all
  SpRWLock lock{flat};
  EXPECT_EQ(lock.snzi_leaf_count(), 0u);
}

// Scan-cost accounting: only scans that found no reader are sampled (a
// scan that finds one returns the reader abort before the sample), so an
// uncontended HTM write records exactly one passing scan with a non-zero
// virtual-cycle cost.
TEST(SpRWLCommitScan, PassingCommitScanIsSampled) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 4);
  cfg.reader_htm_first = false;
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) { lock.write(1, [&] { x.v.store(1); }); });
  EXPECT_EQ(lock.stats().writes.htm, 1u);
  EXPECT_EQ(lock.commit_scan_count(), 1u);
  EXPECT_GT(lock.commit_scan_cycles(), 0u);
}

// The other half of the accounting: a writer whose scans find a live
// uninstrumented reader aborts on them, and none of those scans is
// sampled — once the reader leaves, the committed write's passing scan is
// the only sample. kFull: after a reader abort the writer waits for the
// reader to end instead of burning its retries, so it commits in HTM.
TEST(SpRWLCommitScan, ScansThatFindAReaderAreNotSampled) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 2);
  cfg.reader_htm_first = false;
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] { platform::advance(3000); });
    } else {
      platform::advance(1000);
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  EXPECT_GE(lock.reader_abort_count(), 1u);
  EXPECT_EQ(lock.stats().writes.htm, 1u);
  EXPECT_EQ(lock.commit_scan_count(), 1u);
  EXPECT_GT(lock.commit_scan_cycles(), 0u);
}

}  // namespace
}  // namespace sprwl::core

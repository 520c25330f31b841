// Hierarchical per-socket reader tracking (Config::socket_sharded_tracking,
// DESIGN.md §11) and the lock's entry-point guards: construction rejects
// topologies too small for the shard layout, out-of-range thread ids throw
// instead of corrupting a neighbour's flag slot, SNZI auto-sizing follows
// max_threads, and the sharded layout preserves the base algorithm's
// safety scenarios unchanged.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/platform.h"
#include "core/sprwl.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::core {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

Config sharded_config(int threads, int sockets) {
  Config cfg = Config::variant(SchedulingVariant::kNoSched, threads);
  cfg.reader_htm_first = false;
  cfg.socket_sharded_tracking = true;
  cfg.topology = sim::Topology::split(threads, sockets);
  return cfg;
}

// A dense id outside [0, max_threads) would index past the flag array (or,
// sharded, wrap onto another socket's shard). Both entry points must throw
// instead of asserting away the problem in release builds.
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

// An undersized topology would map two tids to the same shard slot; the
// constructor refuses rather than silently aliasing reader flags.
TEST(SpRWLSharded, ConstructorRejectsUndersizedTopology) {
  Config c = Config::variant(SchedulingVariant::kNoSched, 4);
  c.socket_sharded_tracking = true;
  c.topology.sockets = 2;
  c.topology.cores_per_socket = 1;  // 2 * 1 < 4 threads
  EXPECT_THROW(SpRWLock{c}, std::invalid_argument);
  c.topology.cores_per_socket = 0;  // unset cps with >1 socket
  EXPECT_THROW(SpRWLock{c}, std::invalid_argument);
  c.topology = sim::Topology::split(4, 2);  // 2 * 2 >= 4: fine
  EXPECT_NO_THROW(SpRWLock{c});
}

// SNZI auto-sizing (snzi_levels = 0): the tree grows until the leaf row
// holds roughly max_threads / 2 slots, capped only at the tree's own
// kMaxLevels (past-256-thread cases live in test_bravo.cpp's regression).
TEST(SpRWLSharded, SnziAutoSizeTracksMaxThreads) {
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

// Fig. 1 under the sharded layout with the reader and writer on different
// sockets: the writer's commit scan reads socket summaries instead of flag
// lines, and must still abort while the remote reader is in its section.
TEST(SpRWLSharded, Fig1_WriterAbortsOnRemoteSocketReader) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{sharded_config(2, 2)};  // tid 0 -> socket 0, tid 1 -> 1
  Cell x;
  std::vector<std::uint64_t> reader_saw;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] {
        reader_saw.push_back(x.v.load());
        platform::advance(50000);
        reader_saw.push_back(x.v.load());
      });
    } else {
      platform::advance(10000);
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  ASSERT_EQ(reader_saw.size(), 2u);
  EXPECT_EQ(reader_saw[0], 0u);
  EXPECT_EQ(reader_saw[1], 0u);
  EXPECT_EQ(x.v.raw_load(), 1u);
  EXPECT_GE(lock.reader_abort_count(), 1u);
}

// Scan-cost accounting: only scans that found no reader are sampled (a
// scan that finds one returns the reader abort before the sample), so an
// uncontended HTM write records exactly one passing scan with a non-zero
// virtual-cycle cost.
TEST(SpRWLSharded, PassingCommitScanIsSampled) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{sharded_config(4, 2)};
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

// Atomicity stress across both sockets: concurrent readers must never see
// the two cells out of sync while writers update them together.
TEST(SpRWLSharded, NoTornReadsAcrossSockets) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 8);
  cfg.socket_sharded_tracking = true;
  cfg.topology = sim::Topology::split(8, 2);
  SpRWLock lock{cfg};
  Cell a, b;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(8, [&](int tid) {
    for (int op = 0; op < 20; ++op) {
      if (tid % 4 == 0) {  // tids 0 and 4: one writer per socket
        lock.write(1, [&] {
          const std::uint64_t n = a.v.load() + 1;
          a.v.store(n);
          b.v.store(n);
        });
      } else {
        lock.read(0, [&] {
          const std::uint64_t x = a.v.load();
          platform::advance(200);
          const std::uint64_t y = b.v.load();
          if (x != y) ++torn;
        });
      }
      platform::advance(100 * static_cast<std::uint64_t>(tid) + 50);
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(a.v.raw_load(), 40u);  // 2 writers x 20 increments
  EXPECT_EQ(a.v.raw_load(), b.v.raw_load());
}

// Sharded tracking composes with the SNZI indicator (the tree replaces
// the socket summaries as the commit-time check): same atomicity guarantee.
TEST(SpRWLSharded, ComposesWithSnzi) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 8);
  cfg.socket_sharded_tracking = true;
  cfg.topology = sim::Topology::split(8, 2);
  cfg.use_snzi = true;
  SpRWLock lock{cfg};
  EXPECT_GT(lock.snzi_leaf_count(), 0u);
  Cell a, b;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(8, [&](int tid) {
    for (int op = 0; op < 10; ++op) {
      if (tid == 0) {
        lock.write(1, [&] {
          const std::uint64_t n = a.v.load() + 1;
          a.v.store(n);
          b.v.store(n);
        });
      } else {
        lock.read(0, [&] {
          const std::uint64_t x = a.v.load();
          platform::advance(150);
          if (x != b.v.load()) ++torn;
        });
      }
      platform::advance(70 * static_cast<std::uint64_t>(tid) + 30);
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(a.v.raw_load(), 10u);
}

}  // namespace
}  // namespace sprwl::core

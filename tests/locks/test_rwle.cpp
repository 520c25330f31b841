#include "locks/rwle.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/platform.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::locks {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

RWLELock::Config config(int threads) {
  RWLELock::Config c;
  c.max_threads = threads;
  return c;
}

TEST(RWLE, ReadersAreUninstrumented) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 4, 4};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(1)};
  std::vector<Cell> cells(32);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.read(0, [&] {
      for (auto& c : cells) (void)c.v.load();  // way beyond capacity
    });
  });
  EXPECT_EQ(lock.stats().reads.unins, 1u);
  EXPECT_EQ(engine.stats().aborts_capacity, 0u);  // readers never enter HTM
}

TEST(RWLE, ShortWritersCommitInHtm) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  ThreadIdScope tid(0);
  RWLELock lock{config(1)};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (int i = 0; i < 50; ++i) {
      lock.write(1, [&] { x.v.store(x.v.load() + 1); });
    }
  });
  EXPECT_EQ(lock.stats().writes.htm, 50u);
  EXPECT_EQ(x.v.raw_load(), 50u);
}

TEST(RWLE, CapacityWritersUseRot) {
  // Writers beyond plain-HTM read capacity but within the ROT's
  // write-buffer limits must commit as ROTs, like on POWER8.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 8, 64};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(1)};
  std::vector<Cell> cells(32);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.write(1, [&] {
      for (auto& c : cells) c.v.store(c.v.load() + 1);  // reads > 8 lines
    });
  });
  EXPECT_EQ(lock.stats().writes.rot, 1u);
  for (auto& c : cells) EXPECT_EQ(c.v.raw_load(), 1u);
}

TEST(RWLE, RotWriterWaitsForOverlappingReader) {
  // The quiescence property: a ROT writer must not publish while a reader
  // that started before the publish is still active.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 4, 64};  // writers -> ROT
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(2)};
  std::vector<Cell> cells(8);
  std::uint64_t reader_sum = ~0ULL;
  std::uint64_t writer_done_at = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {  // long reader starts first
      lock.read(0, [&] {
        std::uint64_t sum = 0;
        for (auto& c : cells) {
          sum += c.v.load();
          platform::advance(8000);
        }
        reader_sum = sum;
      });
    } else {  // writer arrives mid-reader
      platform::advance(10000);
      lock.write(1, [&] {
        for (auto& c : cells) c.v.store(c.v.load() + 1);
      });
      writer_done_at = platform::now();
    }
  });
  EXPECT_EQ(reader_sum, 0u);             // all-old snapshot
  EXPECT_GE(writer_done_at, 60000u);     // writer quiesced past the reader
  for (auto& c : cells) EXPECT_EQ(c.v.raw_load(), 1u);
}

TEST(RWLE, WriterLatencyGrowsWithReaderChurn) {
  // The paper's key observation: RW-LE writers pay quiescence proportional
  // to reader activity; with long churning readers, writer latency is far
  // above the critical-section length.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 4, 64};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(4)};
  Cell x;
  std::uint64_t writer_total = 0;
  int writes = 0;
  sim::Simulator sim;
  sim.run(4, [&](int tid) {
    if (tid == 0) {
      for (int i = 0; i < 10; ++i) {
        const std::uint64_t t0 = platform::now();
        lock.write(1, [&] { x.v.store(x.v.load() + 1); });
        writer_total += platform::now() - t0;
        ++writes;
        platform::advance(500);
      }
    } else {
      for (int i = 0; i < 60; ++i) {
        lock.read(0, [&] { platform::advance(5000); });
        platform::advance(200);
      }
    }
  });
  EXPECT_EQ(writes, 10);
  EXPECT_EQ(x.v.raw_load(), 10u);
  // Mean writer latency far exceeds the ~100-cycle critical section.
  EXPECT_GT(writer_total / 10, 3000u);
}

TEST(RWLE, TornFreeUnderMixedStress) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 6, 64};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(8)};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(8, [&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) + 9);
    for (int i = 0; i < 100; ++i) {
      if (tid % 2 == 0) {
        lock.write(1, [&] {
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          platform::advance(rng.next_below(300));
          p.b.store(v);
        });
      } else {
        lock.read(0, [&] {
          const std::uint64_t a = p.a.load();
          platform::advance(rng.next_below(300));
          if (p.b.load() != a) ++torn;
        });
      }
      platform::advance(rng.next_below(100));
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(p.a.raw_load(), 400u);
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
}

// With no EngineScope installed there is no HTM to elide onto: the write
// entry point must throw instead of dereferencing a null engine.
TEST(RWLE, WriteWithoutEngineThrows) {
  ThreadIdScope tid(0);
  RWLELock lock{config(1)};
  EXPECT_THROW(lock.write(1, [] {}), std::logic_error);
}

}  // namespace
}  // namespace sprwl::locks

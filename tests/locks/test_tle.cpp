#include "locks/tle.h"

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

TLELock::Config config(int threads, int retries = 10) {
  TLELock::Config c;
  c.max_threads = threads;
  c.max_retries = retries;
  return c;
}

TEST(TLE, ShortSectionsCommitInHardware) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  ThreadIdScope tid(0);
  TLELock lock{config(1)};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (int i = 0; i < 100; ++i) {
      lock.write(1, [&] { x.v.store(x.v.load() + 1); });
      lock.read(0, [&] { (void)x.v.load(); });
    }
  });
  const LockStats s = lock.stats();
  EXPECT_EQ(s.writes.htm, 100u);
  EXPECT_EQ(s.reads.htm, 100u);
  EXPECT_EQ(s.writes.gl + s.reads.gl, 0u);
}

TEST(TLE, CapacityAbortActivatesFallbackImmediately) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 8, 8};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  TLELock lock{config(1)};
  std::vector<Cell> cells(32);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.read(0, [&] {
      for (auto& c : cells) (void)c.v.load();
    });
  });
  // The paper's retry policy: capacity -> fallback without retries.
  EXPECT_EQ(engine.stats().aborts_capacity, 1u);
  EXPECT_EQ(lock.stats().reads.gl, 1u);
}

TEST(TLE, ExhaustedRetriesFallBack) {
  // Force persistent conflicts: a long writer transaction is repeatedly
  // invalidated by strong-isolation stores from a second fiber.
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  TLELock lock{config(2, 3)};
  Cell shared_cell;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.write(1, [&] {
        const std::uint64_t v = shared_cell.v.load();
        platform::advance(20000);  // long window
        shared_cell.v.store(v + 1);
      });
    } else {
      // Hammer the cell with plain stores until tid 0 gave up on HTM.
      for (int i = 0; i < 40; ++i) {
        shared_cell.v.store(1000 + static_cast<std::uint64_t>(i));
        platform::advance(3000);
      }
    }
  });
  EXPECT_EQ(lock.stats().writes.gl, 1u);
  EXPECT_GE(engine.stats().aborts_conflict, 1u);
}

TEST(TLE, FallbackExcludesHardwareTransactions) {
  // Writers exceed write capacity (2 padded cells > 1 line) and always run
  // under the fallback lock; readers elide in HTM. Subscription must keep
  // the elided readers from observing the fallback writer's torn state.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 16, 1};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  TLELock lock{config(4)};
  Cell a, b;  // separate cache lines
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(4, [&](int tid) {
    for (int i = 0; i < 80; ++i) {
      if (tid == 0) {
        lock.write(1, [&] {
          const std::uint64_t v = a.v.load() + 1;
          a.v.store(v);
          platform::advance(500);
          b.v.store(v);
        });
      } else {
        lock.read(0, [&] {
          const std::uint64_t x = a.v.load();
          platform::advance(300);
          if (b.v.load() != x) ++torn;
        });
      }
      platform::advance(100);
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(lock.stats().writes.gl, 80u);
  EXPECT_EQ(a.v.raw_load(), 80u);
  EXPECT_EQ(b.v.raw_load(), 80u);
}

// With no EngineScope installed there is no HTM to elide onto: the write
// entry point must throw instead of dereferencing a null engine.
TEST(TLE, WriteWithoutEngineThrows) {
  ThreadIdScope tid(0);
  TLELock lock{config(1)};
  EXPECT_THROW(lock.write(1, [] {}), std::logic_error);
}

}  // namespace
}  // namespace sprwl::locks

#include "snzi/snzi.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/platform.h"
#include "common/rng.h"
#include "htm/engine.h"
#include "sim/simulator.h"

namespace sprwl::snzi {
namespace {

TEST(Snzi, StartsAtZero) {
  Snzi s;
  EXPECT_FALSE(s.query());
  EXPECT_EQ(s.root_count_raw(), 0u);
}

TEST(Snzi, SingleArriveDepart) {
  ThreadIdScope tid(0);
  Snzi s;
  s.arrive(0);
  EXPECT_TRUE(s.query());
  s.depart(0);
  EXPECT_FALSE(s.query());
}

TEST(Snzi, MultipleArrivalsSameSlot) {
  ThreadIdScope tid(0);
  Snzi s;
  for (int i = 0; i < 10; ++i) s.arrive(0);
  for (int i = 0; i < 9; ++i) {
    s.depart(0);
    EXPECT_TRUE(s.query()) << "after " << i + 1 << " departs";
  }
  s.depart(0);
  EXPECT_FALSE(s.query());
}

TEST(Snzi, DistinctSlotsShareTheIndicator) {
  ThreadIdScope tid(0);
  Snzi s(Snzi::Config{3});
  s.arrive(0);
  s.arrive(5);
  s.arrive(11);
  EXPECT_TRUE(s.query());
  s.depart(5);
  s.depart(0);
  EXPECT_TRUE(s.query());
  s.depart(11);
  EXPECT_FALSE(s.query());
}

TEST(Snzi, SingleLevelDegeneratesToCounter) {
  ThreadIdScope tid(0);
  Snzi s(Snzi::Config{1});
  EXPECT_EQ(s.leaf_count(), 1u);
  s.arrive(3);
  s.arrive(4);
  EXPECT_TRUE(s.query());
  s.depart(3);
  s.depart(4);
  EXPECT_FALSE(s.query());
}

// Property: query() agrees with a reference surplus counter whenever no
// arrive/depart is mid-flight; checked across tree depths and fiber counts.
using Params = std::tuple<int /*levels*/, int /*threads*/>;
class SnziProperty : public ::testing::TestWithParam<Params> {};

TEST_P(SnziProperty, MatchesReferenceCounterAtQuiescentPoints) {
  const auto [levels, threads] = GetParam();
  Snzi s(Snzi::Config{levels});
  sim::Simulator sim;
  // Each fiber performs arrive/depart cycles; between its own operations
  // its contribution to the surplus is known. We check the global property
  // at the end and per-thread monotonic sanity during the run.
  std::vector<int> my_surplus(static_cast<std::size_t>(threads), 0);
  sim.run(threads, [&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) * 31 + 7);
    int held = 0;
    for (int op = 0; op < 400; ++op) {
      if (held > 0 && rng.next_bool(0.5)) {
        s.depart(tid);
        --held;
      } else {
        s.arrive(tid);
        ++held;
      }
      // While we hold at least one arrival, the indicator must be true
      // (our surplus alone is non-zero).
      if (held > 0) {
        EXPECT_TRUE(s.query());
      }
      platform::advance(rng.next_below(200));
    }
    while (held > 0) {
      s.depart(tid);
      --held;
    }
    my_surplus[static_cast<std::size_t>(tid)] = held;
  });
  EXPECT_FALSE(s.query());
  EXPECT_EQ(s.root_count_raw(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SnziProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 8, 32)));

TEST(SnziRealThreads, NeverFalseNegativeUnderContention) {
  Snzi s(Snzi::Config{3});
  std::atomic<int> false_negatives{0};
  sim::run_real_threads(4, [&](int tid) {
    for (int op = 0; op < 3000; ++op) {
      s.arrive(tid);
      if (!s.query()) false_negatives.fetch_add(1);
      s.depart(tid);
    }
  });
  EXPECT_EQ(false_negatives.load(), 0);
  EXPECT_FALSE(s.query());
}

TEST(SnziWithEngine, WriterTransactionSubscribesToRoot) {
  // A writer that queried the (empty) SNZI inside its transaction must
  // abort when a reader arrives before the commit — the strong-isolation
  // property the SpRWL SNZI variant needs.
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Snzi s;
  struct alignas(64) Cell {
    htm::Shared<std::uint64_t> v;
  };
  Cell data;
  sim::Simulator sim;
  htm::TxStatus status;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      status = engine.try_transaction([&] {
        data.v.store(1);
        if (s.query()) engine.abort_tx(2);
        platform::advance(10000);  // reader arrives in this window
      });
    } else {
      platform::advance(2000);
      s.arrive(tid);
    }
  });
  EXPECT_FALSE(status.committed());
  EXPECT_EQ(status.cause, htm::AbortCause::kConflict);
  EXPECT_EQ(data.v.raw_load(), 0u);
}

TEST(SnziWithEngine, ArriveDepartWorkInsideTransactions) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  ThreadIdScope tid(0);
  Snzi s;
  const htm::TxStatus st = engine.try_transaction([&] {
    s.arrive(0);
    EXPECT_TRUE(s.query());
  });
  EXPECT_TRUE(st.committed());
  EXPECT_TRUE(s.query());  // published at commit
  engine.try_transaction([&] { s.depart(0); });
  EXPECT_FALSE(s.query());
}

}  // namespace
}  // namespace sprwl::snzi

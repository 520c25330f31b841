// The per-thread last-line memo of Engine::tx_read: a read of the line just
// read skips the line-id lookup and the read-set map. It must change
// nothing observable: the read set still holds each distinct line once,
// the memo never carries a read-set index from one attempt into the next,
// aliasing under a wrapped version table behaves as without it, and a
// strong-isolation store between two reads of one line still aborts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/platform.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::htm {
namespace {

// Eight words per cache line: w[i] and w[j] of one Line share the line.
struct alignas(64) Line {
  Shared<std::uint64_t> w[8];
};

EngineConfig with_read_lines(std::uint32_t read_lines, int table_bits = 20) {
  EngineConfig cfg;
  cfg.capacity = CapacityProfile{"test", read_lines, 64};
  cfg.table_bits = table_bits;
  return cfg;
}

class EngineMemo : public ::testing::Test {
 protected:
  ThreadIdScope tid_{0};
};

// A-A-B-A-B-B-C-A over three lines (several words of each): the read set
// must hold exactly the three distinct lines, so a 3-line capacity commits
// and a 2-line capacity aborts, and every load returns its word.
TEST_F(EngineMemo, ReadSetHoldsEachDistinctLineOnce) {
  std::vector<Line> lines(3);
  for (std::size_t l = 0; l < lines.size(); ++l) {
    for (std::size_t i = 0; i < 8; ++i) lines[l].w[i].raw_store(10 * l + i);
  }
  const std::pair<int, int> pattern[] = {{0, 0}, {0, 5}, {1, 1}, {0, 2},
                                         {1, 7}, {1, 1}, {2, 3}, {0, 0}};
  for (std::uint32_t cap : {3u, 2u}) {
    Engine engine(with_read_lines(cap));
    EngineScope scope(engine);
    std::vector<std::uint64_t> seen;
    const TxStatus st = engine.try_transaction([&] {
      for (const auto& [l, i] : pattern) {
        seen.push_back(lines[static_cast<std::size_t>(l)]
                           .w[static_cast<std::size_t>(i)]
                           .load());
      }
    });
    if (cap == 3) {
      ASSERT_TRUE(st.committed());
      ASSERT_EQ(seen.size(), std::size(pattern));
      for (std::size_t k = 0; k < seen.size(); ++k) {
        EXPECT_EQ(seen[k], static_cast<std::uint64_t>(10 * pattern[k].first +
                                                      pattern[k].second));
      }
    } else {
      EXPECT_EQ(st.cause, AbortCause::kCapacity);
    }
  }
}

// The memo's read-set index belongs to one attempt. After a commit or an
// abort, the first read of the memoized line must record a fresh version:
// a stale index would compare against the previous attempt's version and
// abort on the store made in between (or read a dead entry).
TEST_F(EngineMemo, NoReadSetIndexCarriesAcrossAttempts) {
  Engine engine(with_read_lines(2));
  EngineScope scope(engine);
  Line a, b;
  a.w[0].raw_store(1);

  ASSERT_TRUE(engine.try_transaction([&] { (void)a.w[0].load(); }).committed());
  a.w[0].store(2);  // strong-isolation store: bumps a's line version
  std::uint64_t seen = 0;
  ASSERT_TRUE(
      engine.try_transaction([&] { seen = a.w[0].load(); }).committed());
  EXPECT_EQ(seen, 2u);

  const TxStatus aborted = engine.try_transaction([&] {
    (void)a.w[1].load();
    engine.abort_tx(7);
  });
  EXPECT_EQ(aborted.cause, AbortCause::kExplicit);
  a.w[0].store(3);
  ASSERT_TRUE(
      engine.try_transaction([&] { seen = a.w[0].load(); }).committed());
  EXPECT_EQ(seen, 3u);

  // The memo's line -> id half does stay valid: a-b-a within the 2-line
  // capacity still commits on a later attempt.
  EXPECT_TRUE(engine.try_transaction([&] {
    (void)a.w[0].load();
    (void)b.w[0].load();
    (void)a.w[4].load();
  }).committed());
}

// table_bits = 4: seventeen lines touched in order get ids 0..16, and id 16
// wraps onto table slot 0, the slot of the first line. Aliased lines share
// one read entry (16 slots cover all 17 lines) and a store to one is a
// conflict for a transaction that read the other, memo hit or not.
TEST_F(EngineMemo, WrappedTableAliasesAsWithoutMemo) {
  std::vector<Line> lines(17);
  for (std::size_t l = 0; l < lines.size(); ++l) lines[l].w[0].raw_store(l);
  {
    Engine engine(with_read_lines(16, /*table_bits=*/4));
    EngineScope scope(engine);
    std::uint64_t sum = 0;
    const TxStatus st = engine.try_transaction([&] {
      for (auto& line : lines) sum += line.w[0].load();
      sum += lines[16].w[1].load();  // memo hit on the aliased line
      sum += lines[0].w[0].load();   // read-set hit on its alias
    });
    EXPECT_TRUE(st.committed());
    EXPECT_EQ(sum, 136u);  // 0 + 1 + ... + 16; the last two words are 0
  }
  {
    Engine engine(with_read_lines(15, /*table_bits=*/4));
    EngineScope scope(engine);
    const TxStatus st = engine.try_transaction([&] {
      for (auto& line : lines) (void)line.w[0].load();
    });
    EXPECT_EQ(st.cause, AbortCause::kCapacity);
  }
}

// The aliasing conflict through a memo hit: a store to line 16 bumps table
// slot 0, which a transaction that read line 0 twice must notice.
TEST(EngineMemoConflicts, StoreToAliasedLineAbortsMemoHit) {
  std::vector<Line> lines(17);
  Engine engine(with_read_lines(16, /*table_bits=*/4));
  EngineScope scope(engine);
  sim::Simulator sim;
  TxStatus first, second;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      // Touch the lines in order so line 16 gets id 16 (slot 0).
      first = engine.try_transaction([&] {
        for (auto& line : lines) (void)line.w[0].load();
      });
      platform::wait_until(50000);
      second = engine.try_transaction([&] {
        (void)lines[0].w[0].load();
        platform::advance(100000);  // tid 1 stores meanwhile
        (void)lines[0].w[1].load();
      });
    } else {
      platform::wait_until(100000);
      lines[16].w[0].store(1);
    }
  });
  EXPECT_TRUE(first.committed());
  EXPECT_EQ(second.cause, AbortCause::kConflict);
}

// Two reads of one line with a strong-isolation store to that line landing
// between them (from another fiber): the second read is a memo hit and
// must still validate the line's version and abort.
TEST(EngineMemoConflicts, NonTxStoreBetweenSameLineReadsAborts) {
  for (int word : {0, 3}) {  // the store hits the read word or a neighbour
    Engine engine{EngineConfig{}};
    EngineScope scope(engine);
    Line a;
    sim::Simulator sim;
    TxStatus status;
    int attempts = 0;
    sim.run(2, [&](int tid) {
      if (tid == 0) {
        status = engine.try_transaction([&] {
          ++attempts;
          (void)a.w[0].load();
          platform::advance(10000);  // tid 1 stores meanwhile
          (void)a.w[1].load();
        });
      } else {
        platform::advance(2000);
        a.w[static_cast<std::size_t>(word)].store(1);
      }
    });
    EXPECT_EQ(attempts, 1);
    EXPECT_FALSE(status.committed()) << "word " << word;
    EXPECT_EQ(status.cause, AbortCause::kConflict) << "word " << word;
  }
}

}  // namespace
}  // namespace sprwl::htm

// A transaction body may return htm::Abort{code} instead of calling
// abort_tx(code). The two must be indistinguishable to everything but the
// host clock: the same TxStatus (cause and code), the same explicit-abort
// count, the same virtual-cycle charge and no published write — top-level,
// inside a flattened nested attempt (where the returned abort must still
// abort the outer attempt), and for a ROT.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "common/platform.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::htm {
namespace {

struct Outcome {
  TxStatus status;
  std::uint64_t explicit_aborts = 0;
  std::uint64_t total_aborts = 0;
  std::uint64_t cycles = 0;  // virtual cycles of the whole attempt
  std::uint64_t x = 0;       // the cell after the attempt
};

enum class Kind { kTransaction, kRot };

// One attempt of the body `make_body(engine, x)` builds, on a fresh engine
// inside a one-fiber simulation so its virtual-cycle cost is exact.
template <class MakeBody>
Outcome run_attempt(Kind kind, MakeBody make_body) {
  Engine engine{EngineConfig{}};
  EngineScope scope(engine);
  Shared<std::uint64_t> x(1);
  Outcome out;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    auto body = make_body(engine, x);
    const std::uint64_t start = platform::now();
    out.status = kind == Kind::kRot ? engine.try_rot(body)
                                    : engine.try_transaction(body);
    out.cycles = platform::now() - start;
  });
  out.explicit_aborts = engine.stats().aborts_explicit;
  out.total_aborts = engine.stats().total_aborts();
  out.x = x.raw_load();
  return out;
}

void expect_same(const Outcome& returned, const Outcome& thrown) {
  EXPECT_EQ(returned.status.cause, AbortCause::kExplicit);
  EXPECT_EQ(returned.status.cause, thrown.status.cause);
  EXPECT_EQ(returned.status.code, thrown.status.code);
  EXPECT_EQ(returned.explicit_aborts, 1u);
  EXPECT_EQ(returned.explicit_aborts, thrown.explicit_aborts);
  EXPECT_EQ(returned.total_aborts, thrown.total_aborts);
  EXPECT_EQ(returned.cycles, thrown.cycles);
  EXPECT_GT(returned.cycles, 0u);
  EXPECT_EQ(returned.x, 1u) << "an aborted attempt published a write";
  EXPECT_EQ(thrown.x, 1u);
}

const auto kReturns = [](Engine&, Shared<std::uint64_t>& x) {
  return [&x]() -> std::optional<Abort> {
    x.store(99);
    return Abort{0xAB};
  };
};
const auto kThrows = [](Engine& e, Shared<std::uint64_t>& x) {
  return [&e, &x] {
    x.store(99);
    e.abort_tx(0xAB);
  };
};

TEST(ReturnedAbort, MatchesAbortTx) {
  expect_same(run_attempt(Kind::kTransaction, kReturns),
              run_attempt(Kind::kTransaction, kThrows));
}

TEST(ReturnedAbort, MatchesAbortTxInARot) {
  expect_same(run_attempt(Kind::kRot, kReturns),
              run_attempt(Kind::kRot, kThrows));
}

// The nested attempt flattens into the outer one, so its returned abort
// must unwind to the outer begin: the outer body never resumes and the
// outer attempt reports the inner code.
TEST(ReturnedAbort, InsideANestedAttemptAbortsTheOuterAttempt) {
  bool resumed = false;
  const Outcome returned =
      run_attempt(Kind::kTransaction, [&](Engine& e, Shared<std::uint64_t>& x) {
        return [&e, &x, &resumed] {
          x.store(5);
          e.try_transaction([&x]() -> std::optional<Abort> {
            x.store(7);
            return Abort{0x42};
          });
          resumed = true;
        };
      });
  const Outcome thrown =
      run_attempt(Kind::kTransaction, [&](Engine& e, Shared<std::uint64_t>& x) {
        return [&e, &x, &resumed] {
          x.store(5);
          e.try_transaction([&e, &x] {
            x.store(7);
            e.abort_tx(0x42);
          });
          resumed = true;
        };
      });
  EXPECT_FALSE(resumed);
  EXPECT_EQ(returned.status.code, 0x42);
  expect_same(returned, thrown);
}

TEST(ReturnedAbort, ReturningNulloptCommits) {
  const Outcome out =
      run_attempt(Kind::kTransaction, [](Engine&, Shared<std::uint64_t>& x) {
        return [&x]() -> std::optional<Abort> {
          x.store(99);
          return std::nullopt;
        };
      });
  EXPECT_TRUE(out.status.committed());
  EXPECT_EQ(out.total_aborts, 0u);
  EXPECT_EQ(out.x, 99u);
}

}  // namespace
}  // namespace sprwl::htm

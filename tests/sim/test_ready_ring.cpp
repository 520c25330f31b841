// The simulator's ready set (a sorted ring) checked against a naive
// reference: a linear min-(time, id) scan over every live fiber. Each
// fiber runs a scripted mix of advances, far-future wait_untils and
// equal-time ties, and some finish early. The activation order, the final
// clock and the switch and push/pop counts must all match the model.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace sprwl::sim {
namespace {

struct Op {
  bool wait = false;    // wait_until(arg) instead of advance(arg)
  std::uint64_t arg = 0;
};

using Script = std::vector<std::vector<Op>>;

Script make_script(int nfibers, std::uint64_t seed) {
  Rng rng(seed);
  Script script(static_cast<std::size_t>(nfibers));
  for (int id = 0; id < nfibers; ++id) {
    // Early finishers: a tenth of the fibers run only a couple of ops.
    const std::uint64_t len = rng.next_bool(0.1) ? rng.next_below(3)
                                                 : 8 + rng.next_below(24);
    std::uint64_t horizon = 0;  // rough clock, for far-future targets
    for (std::uint64_t k = 0; k < len; ++k) {
      Op op;
      const std::uint64_t kind = rng.next_below(10);
      if (kind == 0) {
        // Far-future wait: parks the fiber well behind everyone else.
        op.wait = true;
        op.arg = horizon + 500 + rng.next_below(2000);
      } else if (kind == 1) {
        // A wait into the past or present: no clock change, maybe no yield.
        op.wait = true;
        op.arg = rng.next_below(horizon + 1);
      } else if (kind <= 5) {
        // Multiples of 8 make many fibers land on the same time: ties are
        // then broken by id alone.
        op.arg = 8 * (1 + rng.next_below(4));
      } else {
        op.arg = 1 + rng.next_below(60);
      }
      horizon += op.wait ? 0 : op.arg;
      script[static_cast<std::size_t>(id)].push_back(op);
    }
  }
  return script;
}

struct Outcome {
  std::vector<int> activations;  // fiber entered, in order
  std::uint64_t final_time = 0;
  std::uint64_t switches = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
};

// The naive model: pick the live fiber with the smallest (time, id); run
// its ops while its clock does not pass the smallest clock of the others
// (a fiber keeps the CPU on a time tie). Push/pop accounting is the
// scheduler's: every fiber is pushed once at start, every yield re-queues
// the yielding fiber, every activation pops.
Outcome model(const Script& script) {
  const std::size_t n = script.size();
  std::vector<std::uint64_t> time(n, 0);
  std::vector<std::size_t> pc(n, 0);
  std::vector<bool> done(n, false);
  Outcome out;
  out.pushes = n;
  std::size_t live = n;
  while (live > 0) {
    std::size_t cur = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!done[i] && (cur == n || time[i] < time[cur])) cur = i;
    }
    out.activations.push_back(static_cast<int>(cur));
    ++out.switches;
    ++out.pops;
    std::uint64_t others = ~std::uint64_t{0};
    for (std::size_t i = 0; i < n; ++i) {
      if (i != cur && !done[i] && time[i] < others) others = time[i];
    }
    for (;;) {
      if (pc[cur] == script[cur].size()) {
        done[cur] = true;
        --live;
        break;
      }
      const Op& op = script[cur][pc[cur]++];
      if (op.wait) {
        if (op.arg > time[cur]) time[cur] = op.arg;
      } else {
        time[cur] += op.arg;
      }
      if (time[cur] > others) {
        ++out.pushes;
        break;
      }
    }
  }
  for (std::uint64_t t : time) out.final_time = std::max(out.final_time, t);
  return out;
}

Outcome simulate(const Script& script, bool direct_switch) {
  SimConfig cfg;
  cfg.direct_switch = direct_switch;
  cfg.stack_bytes = 64 * 1024;  // 1024 fibers: keep the stacks small
  Simulator sim(cfg);
  Outcome out;
  int last = -1;
  const auto note = [&](int tid) {
    if (tid != last) out.activations.push_back(tid);
    last = tid;
  };
  sim.run(static_cast<int>(script.size()), [&](int tid) {
    note(tid);
    for (const Op& op : script[static_cast<std::size_t>(tid)]) {
      if (op.wait) {
        platform::wait_until(op.arg);
      } else {
        platform::advance(op.arg);
      }
      note(tid);
    }
  });
  out.final_time = sim.final_time();
  out.switches = sim.stats().switches;
  out.pushes = sim.stats().heap_pushes;
  out.pops = sim.stats().heap_pops;
  return out;
}

class ReadyRing : public ::testing::TestWithParam<int> {};

TEST_P(ReadyRing, ActivationOrderMatchesNaiveMinModel) {
  const int nfibers = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Script script =
        make_script(nfibers, seed * 7919 + static_cast<std::uint64_t>(nfibers));
    const Outcome want = model(script);
    for (bool direct : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "fibers=" << nfibers << " seed=" << seed
                   << " direct_switch=" << direct);
      const Outcome got = simulate(script, direct);
      ASSERT_EQ(got.activations, want.activations);
      EXPECT_EQ(got.final_time, want.final_time);
      EXPECT_EQ(got.switches, want.switches);
      EXPECT_EQ(got.pushes, want.pushes);
      EXPECT_EQ(got.pops, want.pops);
      EXPECT_EQ(got.pushes, got.pops);  // the ring drains completely
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FiberCounts, ReadyRing,
                         ::testing::Values(1, 28, 256, 1024));

}  // namespace
}  // namespace sprwl::sim

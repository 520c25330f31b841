// Equivalence and invariants across the two scheduler configurations:
// direct switching (default) and the trampoline (direct_switch = false).
// Both must produce the *same schedule* — the modes are interchangeable in
// everything but wall-clock cost.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sprwl::sim {
namespace {

struct ModeRun {
  std::vector<int> order;       // fiber activations in execution order
  std::uint64_t final_time = 0;
  SimStats stats;
};

// A heavily interleaving workload: per-fiber step costs are coprime-ish so
// fibers constantly overtake each other and almost every advance yields.
ModeRun run_mode(SimConfig cfg, int nfibers, int steps) {
  Simulator sim(cfg);
  ModeRun r;
  sim.run(nfibers, [&](int tid) {
    for (int i = 0; i < steps; ++i) {
      platform::advance(static_cast<std::uint64_t>(3 + (tid * 7 + i) % 11));
      r.order.push_back(tid);
    }
  });
  r.final_time = sim.final_time();
  r.stats = sim.stats();
  return r;
}

TEST(SchedulerModes, IdenticalScheduleDirectAndTrampoline) {
  constexpr int kFibers = 9;
  constexpr int kSteps = 200;
  SimConfig direct;
  direct.direct_switch = true;
  SimConfig trampoline;
  trampoline.direct_switch = false;

  const ModeRun a = run_mode(direct, kFibers, kSteps);
  const ModeRun b = run_mode(trampoline, kFibers, kSteps);

  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.final_time, b.final_time);
}

TEST(SchedulerModes, SwitchCountInvariants) {
  constexpr int kFibers = 7;
  constexpr int kSteps = 150;
  SimConfig direct;
  direct.direct_switch = true;
  SimConfig trampoline;
  trampoline.direct_switch = false;

  const ModeRun a = run_mode(direct, kFibers, kSteps);
  const ModeRun b = run_mode(trampoline, kFibers, kSteps);

  // Total activations are a property of the schedule, not the switch
  // mechanism, so both modes agree.
  EXPECT_EQ(a.stats.switches, b.stats.switches);
  EXPECT_GT(a.stats.switches, static_cast<std::uint64_t>(kFibers));

  // Under direct switching the scheduler stack is entered exactly once per
  // fiber (to start it); every other activation is fiber→fiber.
  EXPECT_EQ(a.stats.direct_switches,
            a.stats.switches - static_cast<std::uint64_t>(kFibers));

  // The trampoline never switches fiber→fiber.
  EXPECT_EQ(b.stats.direct_switches, 0u);
}

TEST(SchedulerModes, DirectSwitchHeapTrafficMatchesActivations) {
  constexpr int kFibers = 5;
  SimConfig direct;
  direct.direct_switch = true;
  const ModeRun a = run_mode(direct, kFibers, 100);
  // Every push has a matching pop: the ready set drains completely.
  EXPECT_EQ(a.stats.heap_pushes, a.stats.heap_pops);
}

// The livelock bound auto-derives from the fiber count (64 + 16 * n):
// queue-lock handoff chains get longer with more parked waiters, so a flat
// constant misreads healthy MCS handoffs as livelock at 8+ threads.
// Explicit values are honoured unchanged (livelock tests pin small ones).
TEST(SchedulerModes, NoProgressBoundAutoDerivesFromThreadCount) {
  SimConfig sc;
  EXPECT_EQ(sc.no_progress_bound, 0);  // auto is the default
  EXPECT_EQ(sc.resolved_no_progress_bound(1), 64 + 16);
  EXPECT_EQ(sc.resolved_no_progress_bound(8), 64 + 128);
  EXPECT_EQ(sc.resolved_no_progress_bound(64), 64 + 1024);
  EXPECT_EQ(sc.resolved_no_progress_bound(0), 64 + 16);  // degenerate
  sc.no_progress_bound = 7;
  EXPECT_EQ(sc.resolved_no_progress_bound(64), 7);
}

TEST(SchedulerModes, StatsResetBetweenRuns) {
  Simulator sim;
  sim.run(4, [](int) { platform::advance(10); });
  const SimStats first = sim.stats();
  sim.run(4, [](int) { platform::advance(10); });
  // Reset, not accumulated.
  EXPECT_EQ(sim.stats().switches, first.switches);
  EXPECT_EQ(sim.stats().heap_pushes, first.heap_pushes);
  EXPECT_EQ(sim.stats().heap_pops, first.heap_pops);
}

}  // namespace
}  // namespace sprwl::sim

// Distributed lease service under node faults (DESIGN.md §15).
//
// Sweeps the lease-protected shard (dist/lock_service.h) over 2-8 node
// topologies with a read-mostly workload (one writer and one reader fiber
// per node), in four regimes per point:
//
//   healthy    — no faults: cross-node goodput, optimistic-read escalation
//                rate, and fabric transfers (CostModel::remote_node).
//   chaos      — a seeded FaultPlan::chaos_nodes schedule (node crash,
//                partition, lease-window preemptions); the run must keep
//                every distributed invariant (no torn or stale validated
//                reads, no lost acknowledged updates).
//   crash      — targeted recovery-latency measurement: the lease-holding
//                writer's node crash-stops at a chosen instant and the
//                probe node hammers writes until one lands. The gap is the
//                service's recovery latency, and the acceptance bar is the
//                protocol's own bound: one lease term (the holder's cached
//                expiry is at most a full term ahead) plus the prober's
//                backoff cap and grant overhead.
//   degraded   — the lease service is unreachable: writers must fall back
//                to the shard's degradation SGL (safe, slow, version
//                protocol preserved) and readers must keep validating.
//
// A 1-node identity column runs the same harness twice on a single node
// and demands bit-identical results — the distributed tier must be
// deterministic, and on one node must never touch the fabric.
//
// Results land in BENCH_dist.json; --smoke runs a reduced sweep and (like
// the full run) exits nonzero when any acceptance property fails.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/support/bench_common.h"
#include "dist/lock_service.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace sprwl::bench {
namespace {

constexpr std::uint64_t kLeaseTerm = 40'000;

fault::DistChaosConfig chaos_config(int nodes, int ops, std::uint64_t seed) {
  fault::DistChaosConfig cfg;
  cfg.threads = 2 * nodes;
  cfg.writers = nodes;  // Bresenham spread: one writer fiber per node
  cfg.topology = sim::Topology::split_nodes(cfg.threads, nodes);
  cfg.ops_per_thread = ops;
  cfg.seed = seed;
  return cfg;
}

dist::ShardConfig shard_config(const fault::DistChaosConfig& cfg) {
  dist::ShardConfig sc;
  sc.topology = cfg.topology;
  sc.max_threads = cfg.threads;
  sc.lease.term = kLeaseTerm;
  return sc;
}

htm::EngineConfig engine_config(const fault::DistChaosConfig& cfg) {
  htm::EngineConfig ec;
  ec.max_threads = cfg.threads;
  ec.topology = cfg.topology;
  return ec;
}

struct Row {
  int nodes = 0;
  std::string regime;
  fault::DistChaosResult r;
  std::uint64_t recovery_latency = 0;  ///< crash regime only
  std::uint64_t crash_at = 0;          ///< crash regime only
  std::uint64_t degraded_writes = 0;

  double goodput() const noexcept {
    return r.final_time ? static_cast<double>(r.reads + r.writes) /
                              static_cast<double>(r.final_time)
                        : 0.0;
  }
};

/// Targeted recovery-latency probe: the node-0 writer holds (and renews)
/// the lease until its node crash-stops at `crash_at`; the node-1 prober
/// hammers writes — none can land before the crash (the holder never lets
/// the lease lapse) — and the first success marks recovery.
Row measure_recovery(int nodes, std::uint64_t crash_at, std::uint64_t seed) {
  fault::DistChaosConfig cfg = chaos_config(nodes, 0, seed);
  const dist::ShardConfig sc = shard_config(cfg);
  dist::Shard shard(sc);
  htm::Engine engine(engine_config(cfg));

  fault::FaultPlan plan;
  plan.topology = cfg.topology;
  fault::NodeCrashSpec crash;
  crash.node = 0;
  crash.at = crash_at;
  plan.crashes.push_back(crash);

  sim::SimConfig scfg;
  scfg.topology = cfg.topology;
  scfg.max_virtual_time = crash_at + 4'000'000;
  sim::Simulator sim(scfg);
  fault::FaultInjector injector(plan, &sim, &engine);
  fault::FaultScope fscope(injector);
  htm::EngineScope escope(engine);

  std::uint64_t first_success = 0;
  bool completed = true;
  try {
  sim.run(cfg.threads, [&](int tid) {
    const int node = cfg.topology.node_of(tid);
    if (node == 0 && tid == 0) {
      try {
        for (;;) {  // hold + renew until the crash kills this fiber
          shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
            for (std::size_t c = 0; c < n; ++c) vals[c] = vals[0] + 1;
          });
          platform::advance(500);
        }
      } catch (const fault::NodeCrashed&) {
      }
      return;
    }
    if (node == 1 && first_success == 0 && tid == 2) {
      while (first_success == 0) {
        if (shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
              for (std::size_t c = 0; c < n; ++c) vals[c] = vals[0] + 1;
            })) {
          first_success = platform::now();
        }
      }
    }
  });
  } catch (const sim::SimTimeLimitError&) {
    completed = false;
  }

  Row row;
  row.nodes = nodes;
  row.regime = "crash";
  row.crash_at = crash_at;
  row.recovery_latency =
      first_success > crash_at ? first_success - crash_at : 0;
  row.r.completed = completed && first_success != 0;
  row.r.final_time = sim.final_time();
  row.r.recoveries = shard.stats().recoveries.load(std::memory_order_relaxed);
  return row;
}

Row run_regime(int nodes, const char* regime, int ops, std::uint64_t seed) {
  fault::DistChaosConfig cfg = chaos_config(nodes, ops, seed);
  const dist::ShardConfig sc = shard_config(cfg);
  dist::Shard shard(sc);
  htm::Engine engine(engine_config(cfg));

  fault::FaultPlan plan;
  plan.topology = cfg.topology;
  if (std::strcmp(regime, "chaos") == 0) {
    plan = fault::FaultPlan::chaos_nodes(
        seed, 6'000ULL * static_cast<std::uint64_t>(cfg.ops_per_thread),
        cfg.topology);
  } else if (std::strcmp(regime, "degraded") == 0) {
    shard.set_service_reachable(false);
  }

  Row row;
  row.nodes = nodes;
  row.regime = regime;
  row.r = fault::run_dist_chaos(shard, engine, cfg, plan);
  row.degraded_writes =
      shard.stats().degraded_writes.load(std::memory_order_relaxed);
  return row;
}

void json_row(JsonWriter& j, const Row& row) {
  j.begin_object();
  j.key("nodes").value(static_cast<std::uint64_t>(row.nodes));
  j.key("regime").value(row.regime);
  j.key("completed").value(row.r.completed);
  j.key("reads").value(row.r.reads);
  j.key("writes").value(row.r.writes);
  j.key("goodput").value(row.goodput());
  j.key("final_time").value(row.r.final_time);
  j.key("torn_reads").value(row.r.torn_reads);
  j.key("stale_reads").value(row.r.stale_reads);
  j.key("crashed_fibers").value(row.r.crashed_fibers);
  j.key("node_crashes").value(row.r.faults.node_crashes);
  j.key("partition_stalls").value(row.r.faults.partition_stalls);
  j.key("recoveries").value(row.r.recoveries);
  j.key("write_abandons").value(row.r.write_abandons);
  j.key("read_escalations").value(row.r.read_escalations);
  j.key("node_transfers").value(row.r.node_transfers);
  j.key("degraded_writes").value(row.degraded_writes);
  j.key("crash_at").value(row.crash_at);
  j.key("recovery_latency").value(row.recovery_latency);
  j.end_object();
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  using namespace sprwl::bench;
  const Args args = Args::parse(argc, argv, /*has_smoke=*/true);
  const bool smoke = args.smoke;
  const int ops = smoke ? 60 : (args.full ? 300 : 120);
  const std::vector<int> node_counts =
      smoke ? std::vector<int>{2, 4} : std::vector<int>{2, 4, 8};
  const std::vector<std::uint64_t> crash_offsets =
      smoke ? std::vector<std::uint64_t>{30'000, 90'000}
            : std::vector<std::uint64_t>{30'000, 90'000, 170'000};

  // The protocol's own recovery bound: the dead holder's cached expiry is
  // at most one full term ahead of the crash, the prober's backoff adds at
  // most its cap, and the grant + recovery + one write section round out
  // the tail (dist/lease.h).
  const std::uint64_t recovery_bound =
      kLeaseTerm + sprwl::dist::LeaseConfig{}.backoff_max + 10'000;

  std::printf(
      "Lease service under node faults (%d ops/fiber, lease term %llu, "
      "seed %llu)%s\n\n",
      ops, static_cast<unsigned long long>(kLeaseTerm),
      static_cast<unsigned long long>(args.seed), smoke ? " (smoke)" : "");

  bool ok = true;
  std::vector<Row> rows;

  // 1-node identity: deterministic, and the fabric must stay untouched.
  {
    const Row a = run_regime(1, "healthy", ops, args.seed);
    const Row b = run_regime(1, "healthy", ops, args.seed);
    const bool identical = a.r.final_time == b.r.final_time &&
                           a.r.final_value == b.r.final_value &&
                           a.r.reads == b.r.reads && a.r.writes == b.r.writes;
    const bool clean = a.r.invariants_ok() && a.r.node_transfers == 0;
    std::printf("1-node identity: final_time=%llu reads=%llu writes=%llu "
                "transfers=%llu  [%s]\n",
                static_cast<unsigned long long>(a.r.final_time),
                static_cast<unsigned long long>(a.r.reads),
                static_cast<unsigned long long>(a.r.writes),
                static_cast<unsigned long long>(a.r.node_transfers),
                identical && clean ? "ok" : "FAIL");
    if (!(identical && clean)) ok = false;
    rows.push_back(a);
  }

  std::printf("\n%-6s %-9s | %8s %8s %9s | %6s %6s %7s | %9s %9s\n", "nodes",
              "regime", "reads", "writes", "goodput", "crash", "recov",
              "escal", "transfers", "rec-lat");
  for (const int nodes : node_counts) {
    for (const char* regime : {"healthy", "chaos", "degraded"}) {
      Row row = run_regime(nodes, regime, ops, args.seed);
      bool row_ok = row.r.invariants_ok();
      if (std::strcmp(regime, "healthy") == 0) {
        row_ok = row_ok && row.r.node_transfers > 0;
      }
      if (std::strcmp(regime, "degraded") == 0) {
        // Unreachable service: every write must have taken the fallback
        // SGL, none the leased path.
        row_ok = row_ok && row.degraded_writes >= row.r.writes &&
                 row.r.writes > 0;
      }
      std::printf("%-6d %-9s | %8llu %8llu %9.2e | %6llu %6llu %7llu | "
                  "%9llu %9s  %s\n",
                  nodes, regime,
                  static_cast<unsigned long long>(row.r.reads),
                  static_cast<unsigned long long>(row.r.writes),
                  row.goodput(),
                  static_cast<unsigned long long>(row.r.crashed_fibers),
                  static_cast<unsigned long long>(row.r.recoveries),
                  static_cast<unsigned long long>(row.r.read_escalations),
                  static_cast<unsigned long long>(row.r.node_transfers), "-",
                  row_ok ? "" : "FAIL");
      if (!row_ok) ok = false;
      rows.push_back(std::move(row));
    }
    // Crash-storm column: recovery latency bounded by the lease term.
    for (const std::uint64_t crash_at : crash_offsets) {
      Row row = measure_recovery(nodes, crash_at, args.seed);
      const bool row_ok =
          row.r.completed && row.recovery_latency > 0 &&
          row.recovery_latency <= recovery_bound;
      std::printf("%-6d %-9s | %8s %8s %9s | %6s %6llu %7s | %9s %9llu  %s\n",
                  nodes, "crash", "-", "-", "-", "-",
                  static_cast<unsigned long long>(row.r.recoveries), "-", "-",
                  static_cast<unsigned long long>(row.recovery_latency),
                  row_ok ? "" : "FAIL");
      if (!row_ok) ok = false;
      rows.push_back(std::move(row));
    }
  }

  JsonWriter j;
  j.begin_object();
  j.key("bench").value("fig_lease_service");
  j.key("smoke").value(smoke);
  j.key("acceptance_ok").value(ok);
  j.key("lease_term").value(kLeaseTerm);
  j.key("recovery_bound").value(recovery_bound);
  j.key("rows").begin_array();
  for (const Row& r : rows) json_row(j, r);
  j.end_array();
  j.end_object();
  if (j.write_file("BENCH_dist.json")) std::printf("\nwrote BENCH_dist.json\n");

  std::printf("acceptance: %s (recovery bound %llu cycles)\n",
              ok ? "OK" : "VIOLATED",
              static_cast<unsigned long long>(recovery_bound));
  return ok ? 0 : 1;
}

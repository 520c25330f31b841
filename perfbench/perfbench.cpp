// perfbench: one repetition of one named workload, measured on two clocks.
//
//   perfbench --workload <hashmap_short|hashmap_long|tpcc|check_dfs>
//             --seed <n> --trace <0|1> --out <result.json>
//             [--trace-file <trace.json>] [--window-cycles <n>]
//             [--dfs-max-runs <n>]
//
// Host clock: what the simulator costs (setup and run seconds, peak RSS).
// Virtual clock: what the modelled machine does (throughput, latency
// percentiles, per-layer counters); bit-deterministic for a seed. The
// result file holds both, plus the workload's correctness checks; the
// process exits 1 when a check fails and 2 on a command-line error.
// perfbench/run.py repeats processes, takes medians and compares runs.
//
// One repetition per process on purpose: the TPC-C tables are not all
// cache-line aligned, so their line geometry (and with it the HTM
// footprints and every virtual-clock result) depends on where the heap
// places them. A fresh process with an argument-independent allocation
// history before the workload starts (hence no heap use while parsing the
// command line) places them identically every time.
//
// The simulation workloads use the Broadwell capacity profile, 28 fibers
// on this one OS thread and SpRWL in its full configuration:
//   hashmap_short  fig4 geometry, 1 lookup per read, 10% updates
//   hashmap_long   fig3 geometry, 10 lookups per read, 10% updates
//   tpcc           fig7 mix over 56 warehouses
// check_dfs runs 3-thread exhaustive DFS (check::explore_dfs) over the
// registry's SpRWL, TLE and SpRWL-unins configurations.
//
// With --trace 1 spans are recorded around every layer call (spans.h) and
// exported to --trace-file; since platform::now() is uncharged and span
// storage stays off the heap, the traced run's virtual-clock metrics must
// equal an untraced run's.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/explorer.h"
#include "check/registry.h"
#include "common/costs.h"
#include "common/platform.h"
#include "common/rng.h"
#include "core/sprwl.h"
#include "htm/engine.h"
#include "perfbench/spans.h"
#include "sim/simulator.h"
#include "tpcc/tpcc.h"
#include "tpcc/tpcc_driver.h"
#include "workloads/hashmap.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using namespace sprwl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- strict command line ----------------------------------------------------

constexpr const char* kUsage =
    "usage: perfbench --workload <hashmap_short|hashmap_long|tpcc|check_dfs>\n"
    "                 --seed <n> --trace <0|1> --out <file>\n"
    "                 [--trace-file <file>] [--window-cycles <n>]\n"
    "                 [--dfs-max-runs <n>]\n";

[[noreturn]] void usage_error(std::string_view what, std::string_view arg) {
  std::fprintf(stderr, "perfbench: %.*s '%.*s'\n%s",
               static_cast<int>(what.size()), what.data(),
               static_cast<int>(arg.size()), arg.data(), kUsage);
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) {
    usage_error("malformed number", text);
  }
  return v;
}

/// Views into argv only: parsing allocates nothing (see the header).
struct Cli {
  std::string_view workload;
  std::uint64_t seed = 0;
  bool trace = false;
  const char* out = nullptr;
  const char* trace_file = nullptr;
  std::uint64_t window_cycles = 0;  ///< 0 = the workload's default window
  std::uint64_t dfs_max_runs = 0;   ///< 0 = the default DFS cap
};

Cli parse_cli(int argc, char** argv) {
  static constexpr std::string_view kFlags[] = {
      "--workload", "--seed",          "--trace",       "--out",
      "--trace-file", "--window-cycles", "--dfs-max-runs"};
  constexpr std::size_t kN = std::size(kFlags);
  const char* value[kN] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto it = std::find(std::begin(kFlags), std::end(kFlags), flag);
    if (it == std::end(kFlags)) usage_error("unknown argument", flag);
    if (i + 1 >= argc) usage_error("missing value for", flag);
    const auto k = static_cast<std::size_t>(it - std::begin(kFlags));
    if (value[k] != nullptr) usage_error("duplicate flag", flag);
    value[k] = argv[++i];
  }
  for (std::size_t k = 0; k < 4; ++k) {
    if (value[k] == nullptr) usage_error("missing required flag", kFlags[k]);
  }
  Cli c;
  c.workload = value[0];
  c.seed = parse_u64(value[1]);
  const std::uint64_t trace = parse_u64(value[2]);
  if (trace > 1) usage_error("--trace must be 0 or 1, got", value[2]);
  c.trace = trace == 1;
  c.out = value[3];
  c.trace_file = value[4];
  if (value[5] != nullptr) {
    c.window_cycles = parse_u64(value[5]);
    if (c.window_cycles == 0) usage_error("--window-cycles must be >0", "0");
  }
  if (value[6] != nullptr) {
    c.dfs_max_runs = parse_u64(value[6]);
    if (c.dfs_max_runs == 0) usage_error("--dfs-max-runs must be >0", "0");
  }
  return c;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool operator==(const Metric&) const = default;
};

class Metrics {
 public:
  void set(std::string name, double value, const char* unit) {
    v_.push_back({std::move(name), value, unit});
  }
  const std::vector<Metric>& all() const { return v_; }
  bool operator==(const Metrics&) const = default;

 private:
  std::vector<Metric> v_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank percentile of sorted samples, and how many samples lie
/// strictly beyond it.
struct Percentile {
  std::uint64_t value = 0;
  std::uint64_t beyond = 0;
};
Percentile percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return {};
  const auto n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return {sorted[rank - 1], sorted.size() - rank};
}

// --- one repetition ---------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Rep {
  /// Virtual-clock metrics and layer counters: exact for a seed.
  Metrics exact;
  double setup_s = 0;
  double populate_s = 0;
  double engine_s = 0;
  double lock_s = 0;
  double run_s = 0;
  std::vector<Check> checks;
};

struct Params {
  std::uint64_t seed = 0;
  std::uint64_t window_cycles = 0;  ///< simulation workloads
  std::uint64_t dfs_max_runs = 0;   ///< check_dfs
};

constexpr int kThreads = 28;

/// Engine, lock and simulator exactly as the fig3/fig4/fig7 SpRWL points
/// build them on the Broadwell profile (28 threads fit its 28 physical
/// cores, so no SMT capacity halving).
struct Machine {
  std::optional<htm::Engine> engine;
  std::optional<core::SpRWLock> lock;
  std::optional<sim::Simulator> sim;

  void build(std::uint64_t seed, Tracer* tr, Rep& r) {
    {
      HostSpan s(tr, SpanName::kSetupEngine);
      const auto t0 = Clock::now();
      htm::EngineConfig ec;
      ec.capacity = htm::kBroadwell;
      ec.max_threads = kThreads;
      ec.seed = seed;
      engine.emplace(ec);
      r.engine_s = seconds_since(t0);
    }
    {
      HostSpan s(tr, SpanName::kSetupLock);
      const auto t0 = Clock::now();
      lock.emplace(core::Config::variant(core::SchedulingVariant::kFull,
                                         kThreads));
      r.lock_s = seconds_since(t0);
    }
    {
      HostSpan s(tr, SpanName::kSetupSim);
      sim.emplace();
    }
  }
};

/// Per-run instrumentation shared by the fibers (all on one OS thread).
struct Probe {
  Tracer* tr = nullptr;
  std::uint64_t run_span = 0;
  std::uint64_t next_op = 0;

  /// Runs one critical section through the lock (`kind` is kCoreRead or
  /// kCoreWrite) with an op span around the lock call and a body span
  /// around every body attempt.
  template <class F>
  void run(core::SpRWLock& lock, SpanName kind, int cs, int tid,
           bool measured, F&& body) {
    const std::uint64_t op = ++next_op;
    const auto tag = static_cast<std::uint8_t>(cs);
    FiberSpan span(tr, kind, tid, run_span, op, tag, measured);
    const auto attempt = [&] {
      FiberSpan b(tr, SpanName::kBody, tid, span.id(), op, tag, measured);
      body();
    };
    if (kind == SpanName::kCoreWrite) {
      lock.write(cs, attempt);
    } else {
      lock.read(cs, attempt);
    }
  }
};

/// Latency samples of measured operations, per operation class.
struct Samples {
  std::vector<std::uint64_t> read, write;
  std::vector<std::uint64_t> by_cs[6];  // TPC-C critical-section ids 1..5
};

/// End-to-end virtual metrics of the measured window, and the layer
/// counters of the whole run (warmup included), for the simulation
/// workloads.
void record_sim_metrics(Rep& r, const Machine& m,
                        const std::vector<Samples>& per, std::uint64_t window,
                        std::uint64_t ops_total) {
  Samples all;
  for (const Samples& s : per) {
    all.read.insert(all.read.end(), s.read.begin(), s.read.end());
    all.write.insert(all.write.end(), s.write.begin(), s.write.end());
  }
  std::sort(all.read.begin(), all.read.end());
  std::sort(all.write.begin(), all.write.end());
  Metrics& x = r.exact;
  const double committed =
      static_cast<double>(all.read.size() + all.write.size());
  x.set("tx_per_vs",
        committed / static_cast<double>(window) * g_costs.ghz * 1e9, "1/s");
  const Percentile rp50 = percentile(all.read, 0.50);
  const Percentile rp99 = percentile(all.read, 0.99);
  const Percentile wp50 = percentile(all.write, 0.50);
  const Percentile wp99 = percentile(all.write, 0.99);
  x.set("read_p50_cyc", static_cast<double>(rp50.value), "cycles");
  x.set("read_p99_cyc", static_cast<double>(rp99.value), "cycles");
  x.set("write_p50_cyc", static_cast<double>(wp50.value), "cycles");
  x.set("write_p99_cyc", static_cast<double>(wp99.value), "cycles");
  x.set("read_samples", static_cast<double>(all.read.size()), "count");
  x.set("write_samples", static_cast<double>(all.write.size()), "count");
  x.set("read_p99_beyond", static_cast<double>(rp99.beyond), "count");
  x.set("write_p99_beyond", static_cast<double>(wp99.beyond), "count");

  const sim::SimStats& ss = m.sim->stats();
  x.set("sim.switches", static_cast<double>(ss.switches), "count");
  x.set("sim.direct_switch_frac",
        ratio(static_cast<double>(ss.direct_switches),
              static_cast<double>(ss.switches)),
        "ratio");
  x.set("sim.heap_ops", static_cast<double>(ss.heap_pushes + ss.heap_pops),
        "count");
  x.set("sim.switches_per_op",
        ratio(static_cast<double>(ss.switches), static_cast<double>(ops_total)),
        "count/op");

  const htm::EngineStats es = m.engine->stats();
  const double commits = static_cast<double>(es.commits_htm + es.commits_rot);
  x.set("htm.commits", commits, "count");
  x.set("htm.aborts_conflict", static_cast<double>(es.aborts_conflict),
        "count");
  x.set("htm.aborts_capacity", static_cast<double>(es.aborts_capacity),
        "count");
  x.set("htm.aborts_explicit", static_cast<double>(es.aborts_explicit),
        "count");
  x.set("htm.aborts_spurious", static_cast<double>(es.aborts_spurious),
        "count");
  x.set("htm.commit_frac",
        ratio(commits, commits + static_cast<double>(es.total_aborts())),
        "ratio");

  const locks::LockStats ls = m.lock->stats();
  const double reads = static_cast<double>(ls.reads.total());
  const double writes = static_cast<double>(ls.writes.total());
  const auto share = [](std::uint64_t part, double whole) {
    return ratio(static_cast<double>(part), whole);
  };
  x.set("core.read_unins_frac", share(ls.reads.unins, reads), "ratio");
  x.set("core.read_htm_frac", share(ls.reads.htm, reads), "ratio");
  x.set("core.write_htm_frac", share(ls.writes.htm, writes), "ratio");
  x.set("core.write_gl_frac", share(ls.writes.gl, writes), "ratio");
  x.set("core.reader_aborts", static_cast<double>(m.lock->reader_abort_count()),
        "count");
  x.set("core.fallbacks", static_cast<double>(ls.escalations.fallbacks()),
        "count");
  x.set("core.commit_scan_cyc",
        ratio(static_cast<double>(m.lock->commit_scan_cycles()),
              static_cast<double>(m.lock->commit_scan_count())),
        "cycles");
}

/// Runs the simulation under the engine and times it.
template <class Body>
void timed_run(Rep& r, Machine& m, Tracer* tr, Probe& probe, Body&& body) {
  HostSpan s(tr, SpanName::kSimRun);
  probe.tr = tr;
  probe.run_span = s.id();
  if (tr != nullptr) tr->set_simulator(&*m.sim);
  htm::EngineScope scope(*m.engine);
  const auto t0 = Clock::now();
  m.sim->run(kThreads, body);
  r.run_s = seconds_since(t0);
  if (tr != nullptr) tr->set_simulator(nullptr);
}

// --- hash map workloads -----------------------------------------------------

// fig3/fig4 Broadwell geometry: 32768 keys of 65536 in 256 buckets (chains
// of ~128), so 10 lookups overflow the 512-line read capacity and 1 fits.
constexpr std::uint64_t kPopulation = 32768;
constexpr std::uint64_t kKeySpace = 65536;
constexpr std::uint32_t kBuckets = 256;
constexpr double kUpdateRatio = 0.10;
constexpr std::uint64_t kHashmapWarmup = 500'000;

Rep run_hashmap(const Params& p, Tracer* tr, int lookups_per_read) {
  Rep r;
  const std::uint64_t window = p.window_cycles;
  std::optional<workloads::HashMap> map;
  Machine m;
  {
    HostSpan setup(tr, SpanName::kSetup);
    const auto t0 = Clock::now();
    {
      HostSpan s(tr, SpanName::kSetupPopulate);
      const auto tp = Clock::now();
      workloads::HashMap::Config mc;
      mc.buckets = kBuckets;
      mc.capacity = static_cast<std::uint32_t>(kPopulation * 2);
      mc.max_threads = kThreads;
      map.emplace(mc);
      Rng rng(p.seed);
      map->populate(kPopulation, kKeySpace, rng);
      r.populate_s = seconds_since(tp);
    }
    m.build(p.seed, tr, r);
    r.setup_s = seconds_since(t0);
  }

  struct Counts {
    std::uint64_t ops = 0;
    std::int64_t inserted = 0;
    std::int64_t erased = 0;
  };
  std::vector<Counts> counts(kThreads);
  std::vector<Samples> per(kThreads);
  const std::uint64_t measure_start = kHashmapWarmup;
  const std::uint64_t measure_end = kHashmapWarmup + window;
  Probe probe;
  m.engine->reset_stats();
  m.lock->reset_stats();
  timed_run(r, m, tr, probe, [&](int tid) {
    // The same operation stream as workloads::run_hashmap for this seed.
    Rng rng(p.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(tid));
    Counts& me = counts[static_cast<std::size_t>(tid)];
    Samples& mine = per[static_cast<std::size_t>(tid)];
    for (;;) {
      const std::uint64_t t0 = platform::now();
      if (t0 >= measure_end) break;
      const bool measured = t0 >= measure_start;
      ++me.ops;
      if (rng.next_bool(kUpdateRatio)) {
        const std::uint64_t key = rng.next_below(kKeySpace);
        const bool do_insert = rng.next_bool(0.5);
        // Overwritten by every completed body attempt, so after write()
        // returns it holds the committed attempt's outcome.
        bool changed = false;
        probe.run(*m.lock, SpanName::kCoreWrite, 1, tid, measured, [&] {
          changed = do_insert ? map->insert(key, key * 3 + 1) : map->erase(key);
        });
        if (changed) ++(do_insert ? me.inserted : me.erased);
        if (measured) mine.write.push_back(platform::now() - t0);
      } else {
        probe.run(*m.lock, SpanName::kCoreRead, 0, tid, measured, [&] {
          for (int i = 0; i < lookups_per_read; ++i) {
            map->lookup(rng.next_below(kKeySpace));
          }
        });
        if (measured) mine.read.push_back(platform::now() - t0);
      }
      platform::advance(g_costs.local_work);
    }
  });

  std::uint64_t ops_total = 0;
  std::int64_t expected = static_cast<std::int64_t>(kPopulation);
  for (const Counts& c : counts) {
    ops_total += c.ops;
    expected += c.inserted - c.erased;
  }
  record_sim_metrics(r, m, per, window, ops_total);
  {
    HostSpan v(tr, SpanName::kVerify);
    const auto size = static_cast<std::int64_t>(map->raw_size());
    r.checks.push_back(
        {"hashmap.size", size == expected,
         "raw_size " + std::to_string(size) + ", population + inserts - "
             "erases " + std::to_string(expected)});
  }
  return r;
}

// --- TPC-C ------------------------------------------------------------------

constexpr int kWarehouses = 56;
constexpr std::uint64_t kTpccWarmup = 300'000;

Rep run_tpcc(const Params& p, Tracer* tr) {
  Rep r;
  const std::uint64_t window = p.window_cycles;
  std::optional<tpcc::Database> db;
  Machine m;
  {
    HostSpan setup(tr, SpanName::kSetup);
    const auto t0 = Clock::now();
    {
      HostSpan s(tr, SpanName::kSetupPopulate);
      const auto tp = Clock::now();
      // fig7's scale at 56 warehouses.
      tpcc::Scale sc;
      sc.warehouses = kWarehouses;
      sc.districts_per_warehouse = 10;
      sc.customers_per_district = 300;
      sc.items = 5000;
      sc.order_ring = 128;
      sc.max_threads = kThreads;
      sc.history_per_thread = 4096;
      sc.seed = p.seed;
      db.emplace(sc);
      db->populate();
      r.populate_s = seconds_since(tp);
    }
    m.build(p.seed, tr, r);
    r.setup_s = seconds_since(t0);
  }

  const tpcc::TpccDriverConfig mix;  // the paper's mix
  std::vector<Samples> per(kThreads);
  std::vector<std::uint64_t> ops(kThreads, 0);
  const std::uint64_t measure_start = kTpccWarmup;
  const std::uint64_t measure_end = kTpccWarmup + window;
  Probe probe;
  m.engine->reset_stats();
  m.lock->reset_stats();
  timed_run(r, m, tr, probe, [&](int tid) {
    // The same transaction stream as tpcc::run_tpcc for this seed.
    Rng rng(p.seed * 0x2545F4914F6CDD1DULL + static_cast<std::uint64_t>(tid));
    Samples& mine = per[static_cast<std::size_t>(tid)];
    const int home_w = tid % kWarehouses + 1;
    for (;;) {
      const std::uint64_t t0 = platform::now();
      if (t0 >= measure_end) break;
      const bool measured = t0 >= measure_start;
      ++ops[static_cast<std::size_t>(tid)];
      const double u = rng.next_double();
      int cs = 0;
      bool is_read = false;
      // Inputs are drawn outside the section (bodies may re-execute).
      const auto section = [&](int id, bool read, const auto& body) {
        cs = id;
        is_read = read;
        probe.run(*m.lock, read ? SpanName::kCoreRead : SpanName::kCoreWrite,
                  id, tid, measured, body);
      };
      if (u < mix.p_stock_level) {
        const auto in = db->make_stock_level_input(rng, home_w);
        section(tpcc::kCsStockLevel, true, [&] { db->stock_level(in); });
      } else if (u < mix.p_stock_level + mix.p_order_status) {
        const auto in = db->make_order_status_input(rng, home_w);
        section(tpcc::kCsOrderStatus, true, [&] { db->order_status(in); });
      } else if (u < mix.p_stock_level + mix.p_order_status + mix.p_delivery) {
        const auto in = db->make_delivery_input(rng, home_w);
        section(tpcc::kCsDelivery, false, [&] { db->delivery(in); });
      } else if (u < mix.p_stock_level + mix.p_order_status + mix.p_delivery +
                         mix.p_payment) {
        const auto in = db->make_payment_input(rng, home_w);
        section(tpcc::kCsPayment, false, [&] { db->payment(in); });
      } else {
        const auto in = db->make_new_order_input(rng, home_w);
        section(tpcc::kCsNewOrder, false, [&] { db->new_order(in); });
      }
      if (measured) {
        const std::uint64_t lat = platform::now() - t0;
        (is_read ? mine.read : mine.write).push_back(lat);
        mine.by_cs[cs].push_back(lat);
      }
      platform::advance(g_costs.local_work);
    }
  });

  std::uint64_t ops_total = 0;
  for (const std::uint64_t n : ops) ops_total += n;
  static const char* const kCsNames[6] = {nullptr,        "new_order",
                                          "payment",      "order_status",
                                          "delivery",     "stock_level"};
  for (int cs = 1; cs <= 5; ++cs) {
    std::vector<std::uint64_t> lat;
    for (const Samples& s : per) {
      lat.insert(lat.end(), s.by_cs[cs].begin(), s.by_cs[cs].end());
    }
    std::sort(lat.begin(), lat.end());
    r.exact.set(std::string("tpcc.") + kCsNames[cs] + "_p50_cyc",
                static_cast<double>(percentile(lat, 0.5).value), "cycles");
  }
  record_sim_metrics(r, m, per, window, ops_total);
  {
    HostSpan v(tr, SpanName::kVerify);
    r.checks.push_back({"tpcc.warehouse_ytd", db->check_warehouse_ytd(), ""});
    r.checks.push_back({"tpcc.next_order_id", db->check_next_order_id(), ""});
    r.checks.push_back(
        {"tpcc.new_order_queue", db->check_new_order_queue(), ""});
    r.checks.push_back(
        {"tpcc.order_line_counts", db->check_order_line_counts(), ""});
  }
  return r;
}

// --- checker ----------------------------------------------------------------

const char* const kCheckedLocks[] = {"SpRWL", "TLE", "SpRWL-unins"};
// Building the runners takes microseconds; time a batch so the figure is
// above clock resolution and report the per-setup mean.
constexpr int kCheckSetupBatch = 2000;

Rep run_check(const Params& p, Tracer* tr) {
  Rep r;
  check::Workload w;  // 3 threads, 1 writer, 1 op each: the CI shape
  std::vector<check::RunFn> runs;
  {
    HostSpan setup(tr, SpanName::kSetup);
    const auto t0 = Clock::now();
    for (int i = 0; i < kCheckSetupBatch; ++i) {
      runs.clear();
      for (const char* name : kCheckedLocks) {
        runs.push_back(check::make_runner(name, w));
      }
    }
    r.setup_s = seconds_since(t0) / kCheckSetupBatch;
  }
  int exhausted = 0;
  std::vector<check::ExploreReport> reports;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    HostSpan s(tr, SpanName::kCheckDfs);
    s.set_tag(static_cast<std::uint8_t>(i));
    check::ExploreOptions opt;
    opt.max_runs = p.dfs_max_runs;
    opt.lock_name = kCheckedLocks[i];
    reports.push_back(check::explore_dfs(runs[i], w, opt));
  }
  r.run_s = seconds_since(t0);
  {
    HostSpan v(tr, SpanName::kVerify);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const check::ExploreReport& rep = reports[i];
      const std::string name = kCheckedLocks[i];
      r.exact.set("check." + name + ".schedules",
                  static_cast<double>(rep.schedules), "count");
      r.exact.set("check." + name + ".pruned", static_cast<double>(rep.pruned),
                  "count");
      if (rep.exhausted) ++exhausted;
      r.checks.push_back({"check." + name + ".no_violation",
                          !rep.found_violation,
                          rep.found_violation
                              ? std::string(to_string(rep.verdict.kind)) +
                                    ": " + rep.verdict.detail
                              : ""});
    }
  }
  r.exact.set("dfs_exhausted", exhausted, "count");
  return r;
}

// --- span-derived per-layer metrics -----------------------------------------

void record_span_metrics(const Tracer& tr, Metrics& out,
                         std::vector<std::string>& summary) {
  const SpanStore& spans = tr.spans();
  // Per operation: all body-attempt cycles and the last completed attempt
  // (the committed one: the lock returns only after an attempt commits).
  struct OpAgg {
    std::uint64_t body_total = 0;
    std::uint64_t committed = 0;
  };
  std::vector<OpAgg> ops;
  std::map<std::uint64_t, std::int64_t> child_ns;  // covered children
  struct NameAgg {
    std::uint64_t count = 0, covered = 0;
    std::int64_t host_ns = 0;
    std::uint64_t virt = 0;
  };
  NameAgg names[static_cast<int>(SpanName::kCount)];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.covered && s.parent != 0) child_ns[s.parent] += s.host_ns;
    if (s.name == SpanName::kBody) {
      if (s.op >= ops.size()) ops.resize(s.op + 1);
      ops[s.op].body_total += s.virt_cycles;
      if (!s.aborted) ops[s.op].committed = s.virt_cycles;
    }
  }
  double body_all = 0, body_wasted = 0;
  double rd_body = 0, rd_over = 0, wr_body = 0, wr_over = 0;
  double rd_n = 0, wr_n = 0;
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    NameAgg& a = names[static_cast<int>(s.name)];
    ++a.count;
    a.virt += s.virt_cycles;
    if (s.covered) {
      ++covered;
      ++a.covered;
      const auto it = child_ns.find(s.id);
      a.host_ns += s.host_ns - (it == child_ns.end() ? 0 : it->second);
    }
    const bool op_span =
        s.name == SpanName::kCoreRead || s.name == SpanName::kCoreWrite;
    if (!op_span || !s.measured || s.op >= ops.size()) continue;
    const OpAgg& o = ops[s.op];
    body_all += static_cast<double>(o.body_total);
    body_wasted += static_cast<double>(o.body_total - o.committed);
    const double over = static_cast<double>(s.virt_cycles - o.committed);
    if (s.name == SpanName::kCoreRead) {
      rd_body += static_cast<double>(o.committed);
      rd_over += over;
      ++rd_n;
    } else {
      wr_body += static_cast<double>(o.committed);
      wr_over += over;
      ++wr_n;
    }
  }
  out.set("htm.wasted_cycles_frac", ratio(body_wasted, body_all), "ratio");
  out.set("workloads.read_body_cyc", ratio(rd_body, rd_n), "cycles");
  out.set("workloads.write_body_cyc", ratio(wr_body, wr_n), "cycles");
  out.set("core.read_overhead_cyc", ratio(rd_over, rd_n), "cycles");
  out.set("core.write_overhead_cyc", ratio(wr_over, wr_n), "cycles");
  out.set("trace.spans", static_cast<double>(spans.size()), "count");
  out.set("trace.span_coverage",
          ratio(static_cast<double>(covered),
                static_cast<double>(spans.size())),
          "ratio");
  for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i) {
    const NameAgg& a = names[i];
    if (a.count == 0) continue;
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-15s spans %9llu  covered %6.2f%%  host self %12.6f s  "
                  "virtual %14llu cycles",
                  to_string(static_cast<SpanName>(i)),
                  static_cast<unsigned long long>(a.count),
                  100.0 * ratio(static_cast<double>(a.covered),
                                static_cast<double>(a.count)),
                  static_cast<double>(a.host_ns) * 1e-9,
                  static_cast<unsigned long long>(a.virt));
    summary.emplace_back(line);
  }
}

// --- output -----------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o;
}

void write_metrics(std::FILE* f, const char* key, const Metrics& m) {
  std::fprintf(f, "  \"%s\": {", key);
  bool first = true;
  for (const Metric& x : m.all()) {
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ",", x.name.c_str(), x.value, x.unit.c_str());
    first = false;
  }
  std::fputs("\n  },\n", f);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct WorkloadDef {
  std::string_view name;
  Rep (*run)(const Params&, Tracer*);
  std::uint64_t window_cycles;  ///< default measured window; 0 = check_dfs
};

// Windows are sized so every seed leaves at least 10 samples beyond each
// p99 (1000+ samples per operation class): hashmap_long commits only ~80
// writes per million cycles.
constexpr std::uint64_t kShortWindow = 2'000'000;
constexpr std::uint64_t kLongWindow = 14'000'000;
constexpr std::uint64_t kTpccWindow = 3'000'000;
// Covers TLE's 54,430-schedule tree; SpRWL-unins does not exhaust within it.
constexpr std::uint64_t kDfsMaxRuns = 60'000;

const WorkloadDef kWorkloads[] = {
    {"hashmap_short",
     [](const Params& p, Tracer* tr) { return run_hashmap(p, tr, 1); },
     kShortWindow},
    {"hashmap_long",
     [](const Params& p, Tracer* tr) { return run_hashmap(p, tr, 10); },
     kLongWindow},
    {"tpcc", run_tpcc, kTpccWindow},
    {"check_dfs", run_check, 0},
};

int run_main(const Cli& cli) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (cli.workload == d.name) def = &d;
  }
  if (def == nullptr) usage_error("unknown workload", cli.workload);
  const bool is_check = def->window_cycles == 0;
  if (is_check && cli.window_cycles != 0) {
    usage_error("--window-cycles does not apply to", cli.workload);
  }
  if (!is_check && cli.dfs_max_runs != 0) {
    usage_error("--dfs-max-runs does not apply to", cli.workload);
  }
  Params p;
  p.seed = cli.seed;
  p.window_cycles =
      cli.window_cycles != 0 ? cli.window_cycles : def->window_cycles;
  p.dfs_max_runs = cli.dfs_max_runs != 0 ? cli.dfs_max_runs : kDfsMaxRuns;

  std::optional<Tracer> tracer;
  if (cli.trace) tracer.emplace();
  Rep rep = def->run(p, cli.trace ? &*tracer : nullptr);
  const double peak_rss = peak_rss_mib();

  Metrics host, traced;
  host.set("setup_s", rep.setup_s, "s");
  host.set("run_s", rep.run_s, "s");
  host.set("peak_rss_mb", peak_rss, "MiB");
  if (!is_check) {
    host.set("setup.populate_s", rep.populate_s, "s");
    host.set("setup.engine_s", rep.engine_s, "s");
    host.set("setup.lock_s", rep.lock_s, "s");
  }
  std::vector<std::string> summary;
  std::size_t trace_written = 0;
  if (cli.trace) {
    record_span_metrics(*tracer, traced, summary);
    rep.checks.push_back({"trace_spans_complete",
                          tracer->spans().dropped() == 0,
                          std::to_string(tracer->spans().dropped()) +
                              " spans dropped"});
    if (cli.trace_file != nullptr) {
      constexpr std::size_t kMaxTraceEvents = 200'000;
      trace_written =
          tracer->write_chrome_trace(cli.trace_file, kMaxTraceEvents);
      rep.checks.push_back({"trace_file_written", trace_written > 0,
                            cli.trace_file});
    }
  }

  std::FILE* f = std::fopen(cli.out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", cli.out);
    return 2;
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n",
               json_escape(def->name).c_str());
  std::fprintf(f,
               "  \"window\": {\"threads\": %d, \"seed\": %llu, "
               "\"measure_cycles\": %llu, \"dfs_max_runs\": %llu},\n",
               is_check ? check::Workload{}.threads : kThreads,
               static_cast<unsigned long long>(p.seed),
               static_cast<unsigned long long>(is_check ? 0 : p.window_cycles),
               static_cast<unsigned long long>(is_check ? p.dfs_max_runs : 0));
  std::fprintf(f, "  \"compiler\": \"%s\",\n  \"cxx_flags\": \"%s\",\n",
               json_escape(PERFBENCH_COMPILER).c_str(),
               json_escape(PERFBENCH_CXX_FLAGS).c_str());
  std::fprintf(f, "  \"trace_events_written\": %zu,\n", trace_written);
  write_metrics(f, "host", host);
  write_metrics(f, "exact", rep.exact);
  write_metrics(f, "traced", traced);
  std::fputs("  \"span_summary\": [", f);
  for (std::size_t i = 0; i < summary.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\"", i ? "," : "",
                 json_escape(summary[i]).c_str());
  }
  std::fputs("\n  ],\n  \"checks\": [", f);
  bool all_ok = true;
  for (std::size_t i = 0; i < rep.checks.size(); ++i) {
    const Check& c = rep.checks[i];
    all_ok = all_ok && c.ok;
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"ok\": %s, "
                 "\"detail\": \"%s\"}",
                 i ? "," : "", json_escape(c.name).c_str(),
                 c.ok ? "true" : "false", json_escape(c.detail).c_str());
  }
  std::fputs("\n  ]\n}\n", f);
  const bool io_ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !io_ok) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", cli.out);
    return 2;
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run_main(perfbench::parse_cli(argc, argv));
}

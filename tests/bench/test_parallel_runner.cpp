// Determinism regression for the parallel bench runner: fanning data
// points across a worker pool must not change a single byte of bench
// output, and every per-point result (virtual end time included) must be
// bit-identical to the serial run. This is the contract that lets
// perf_pipeline's parallel mode publish the same figure data as serial.
#include "bench/support/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/support/hashmap_fig.h"

namespace sprwl::bench {
namespace {

TEST(Runner, EmitsInSubmissionOrder) {
  Runner runner(4);
  std::string order;
  for (int i = 0; i < 16; ++i) {
    runner.submit([] {}, [&order, i] { order += static_cast<char>('a' + i); });
  }
  runner.drain();
  EXPECT_EQ(order, "abcdefghijklmnop");
}

TEST(Runner, EmitOnlyTasksInterleaveWithComputes) {
  Runner runner(3);
  std::string order;
  runner.submit({}, [&] { order += "H"; });  // header, no compute
  for (int i = 0; i < 3; ++i) {
    runner.submit([] {}, [&order] { order += "r"; });
  }
  runner.submit({}, [&] { order += "H"; });
  runner.submit([] {}, [&order] { order += "r"; });
  runner.drain();
  EXPECT_EQ(order, "HrrrHr");
}

TEST(Runner, SubmitTimedDeliversWallTimeInSubmissionOrder) {
  Runner runner(4);
  std::vector<double> wall;
  std::string order;
  for (int i = 0; i < 6; ++i) {
    runner.submit_timed(
        [] {
          volatile unsigned sink = 0;
          for (unsigned j = 0; j < 50'000; ++j) sink = sink + j;
        },
        [&, i](double ms) {
          order += static_cast<char>('a' + i);
          wall.push_back(ms);
        });
  }
  runner.drain();
  EXPECT_EQ(order, "abcdef");
  ASSERT_EQ(wall.size(), 6u);
  for (const double ms : wall) {
    EXPECT_GE(ms, 0.0);
    EXPECT_LT(ms, 60'000.0) << "wall time should be milliseconds, not ns";
  }
}

TEST(Runner, ComputeExceptionPropagatesAtDrain) {
  Runner runner(2);
  runner.submit([] { throw std::runtime_error("boom"); }, [] { FAIL(); });
  EXPECT_THROW(runner.drain(), std::runtime_error);
}

TEST(Runner, JobsFromEnvHonorsOverride) {
  ::setenv("SPRWL_BENCH_JOBS", "3", 1);
  EXPECT_EQ(Runner::jobs_from_env(), 3);
  ::setenv("SPRWL_BENCH_JOBS", "0", 1);
  EXPECT_GE(Runner::jobs_from_env(), 1);  // invalid: fall back to hardware
  ::unsetenv("SPRWL_BENCH_JOBS");
  EXPECT_GE(Runner::jobs_from_env(), 1);
}

// One reduced hash-map series (three locks, two thread counts) captured
// through SeriesOptions. Returns the concatenated rows plus each point's
// virtual end time.
struct SuiteCapture {
  std::string rows;
  std::vector<std::uint64_t> final_times;
};

SuiteCapture run_suite(int jobs, std::uint64_t seed) {
  SuiteCapture cap;
  SeriesOptions opt;
  opt.out = [&cap](const std::string& s) { cap.rows += s; };
  opt.observe = [&cap](const SeriesPoint& pt) {
    cap.final_times.push_back(pt.final_time);
  };
  const Machine m = broadwell_machine();
  HashmapFigParams p;
  p.seed = seed;
  p.population = 2048;
  p.key_space = 4096;
  p.buckets = 64;
  p.warmup_cycles = 20'000;
  p.measure_cycles = 100'000;
  const std::vector<int> threads{2, 4};
  Runner runner(jobs);
  hashmap_series(runner, "TLE", m, p, threads, make_tle(), opt);
  hashmap_series(runner, "RWL", m, p, threads, make_rwl(), opt);
  hashmap_series(runner, "SpRWL", m, p, threads, make_sprwl(), opt);
  runner.drain();
  return cap;
}

TEST(ParallelDeterminism, ParallelOutputByteIdenticalToSerialAcrossSeeds) {
  for (const std::uint64_t seed : {42u, 7u, 1234u}) {
    const SuiteCapture serial = run_suite(/*jobs=*/1, seed);
    const SuiteCapture parallel = run_suite(/*jobs=*/4, seed);
    ASSERT_FALSE(serial.rows.empty());
    EXPECT_EQ(serial.rows, parallel.rows) << "seed " << seed;
    EXPECT_EQ(serial.final_times, parallel.final_times) << "seed " << seed;
  }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAgree) {
  const SuiteCapture a = run_suite(/*jobs=*/4, /*seed=*/42);
  const SuiteCapture b = run_suite(/*jobs=*/4, /*seed=*/42);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.final_times, b.final_times);
}

// The NUMA sweep's shape (fig_numa_scaling): a 2-socket topology with
// line-owner tracking in the engine. The coherence model's owner table
// lives per engine and each point owns its engine, so fanning points
// across workers must stay byte-identical to the serial run.
SuiteCapture run_numa_suite(int jobs, std::uint64_t seed) {
  SuiteCapture cap;
  const Machine m = broadwell_machine();
  HashmapFigParams p;
  p.seed = seed;
  p.population = 2048;
  p.key_space = 4096;
  p.buckets = 64;
  p.warmup_cycles = 20'000;
  p.measure_cycles = 100'000;
  Runner runner(jobs);
  for (const int n : {2, 4, 8}) {
    auto point = std::make_shared<SeriesPoint>();
    point->lock = "flat";
    point->threads = n;
    runner.submit(
        [point, m, p, n] {
          htm::EngineConfig ec;
          ec.capacity = m.capacity_at(n);
          ec.max_threads = n;
          ec.seed = p.seed;
          ec.topology = sim::Topology::split(n, 2);
          ec.track_line_owners = true;
          htm::Engine engine(ec);
          workloads::HashMap map = make_figure_map(p, n);
          core::SpRWLock lock(
              core::Config::variant(core::SchedulingVariant::kFull, n));
          workloads::DriverConfig dc;
          dc.threads = n;
          dc.update_ratio = p.update_ratio;
          dc.lookups_per_read = p.lookups_per_read;
          dc.key_space = p.key_space;
          dc.warmup_cycles = p.warmup_cycles;
          dc.measure_cycles = p.measure_cycles;
          dc.seed = p.seed;
          sim::Simulator sim;
          point->run = run_hashmap(sim, engine, lock, map, dc);
          point->final_time = sim.final_time();
        },
        [point, &cap] {
          const workloads::RunResult& r = point->run;
          const Breakdown b =
              make_breakdown(r.engine_stats, r.lock_stats, r.reader_aborts);
          cap.rows += format_series_row(point->lock.c_str(), point->threads,
                                        r.throughput_tx_s(), b,
                                        r.read_latency.mean(),
                                        r.write_latency.mean());
          cap.final_times.push_back(point->final_time);
        });
  }
  runner.drain();
  return cap;
}

TEST(ParallelDeterminism, TopologyEnabledSuiteIsByteIdenticalAcrossJobs) {
  for (const std::uint64_t seed : {42u, 7u}) {
    const SuiteCapture serial = run_numa_suite(/*jobs=*/1, seed);
    const SuiteCapture parallel = run_numa_suite(/*jobs=*/4, seed);
    ASSERT_FALSE(serial.rows.empty());
    EXPECT_EQ(serial.rows, parallel.rows) << "seed " << seed;
    EXPECT_EQ(serial.final_times, parallel.final_times) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sprwl::bench

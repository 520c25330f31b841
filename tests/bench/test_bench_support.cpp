#include "bench/support/bench_common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/support/check_cli.h"

namespace sprwl::bench {
namespace {

TEST(Breakdown, PercentagesFromEngineAndLockStats) {
  htm::EngineStats es;
  es.commits_htm = 60;
  es.aborts_conflict = 10;
  es.aborts_capacity = 20;
  es.aborts_explicit = 10;  // of which 6 are reader aborts
  locks::LockStats ls;
  ls.reads.unins = 50;
  ls.writes.htm = 40;
  ls.writes.gl = 10;
  const Breakdown b = make_breakdown(es, ls, 6);
  EXPECT_DOUBLE_EQ(b.abort_rate, 40.0);
  EXPECT_DOUBLE_EQ(b.ab_conflict, 10.0);
  EXPECT_DOUBLE_EQ(b.ab_capacity, 20.0);
  EXPECT_DOUBLE_EQ(b.ab_reader, 6.0);
  EXPECT_DOUBLE_EQ(b.ab_explicit, 4.0);
  EXPECT_DOUBLE_EQ(b.commit_htm, 40.0);
  EXPECT_DOUBLE_EQ(b.commit_gl, 10.0);
  EXPECT_DOUBLE_EQ(b.commit_unins, 50.0);
}

TEST(Breakdown, EmptyStatsGiveZeros) {
  const Breakdown b = make_breakdown(htm::EngineStats{}, locks::LockStats{}, 0);
  EXPECT_EQ(b.abort_rate, 0.0);
  EXPECT_EQ(b.commit_htm, 0.0);
}

TEST(Breakdown, ReaderAbortsNeverExceedExplicit) {
  htm::EngineStats es;
  es.commits_htm = 50;
  es.aborts_explicit = 5;
  const Breakdown b = make_breakdown(es, locks::LockStats{}, 99);  // stale count
  EXPECT_LE(b.ab_reader, 100.0 * 5 / 55 + 1e-9);
  EXPECT_GE(b.ab_explicit, 0.0);
}

TEST(Machine, SmtCapacitySharingPower8) {
  const Machine m = power8_machine();
  EXPECT_EQ(m.capacity_at(1).read_lines, htm::kPower8.read_lines);
  EXPECT_EQ(m.capacity_at(10).read_lines, htm::kPower8.read_lines);
  // 80 threads = SMT8; POWER8's dynamic sharing divides by smt/2 = 4.
  EXPECT_EQ(m.capacity_at(80).read_lines, htm::kPower8.read_lines / 4);
  EXPECT_GE(m.capacity_at(80).read_lines, 1u);
}

TEST(Machine, SmtCapacitySharingBroadwell) {
  const Machine m = broadwell_machine();
  EXPECT_EQ(m.capacity_at(28).read_lines, htm::kBroadwell.read_lines);
  // Hyper-threading statically halves the per-thread footprint.
  EXPECT_EQ(m.capacity_at(56).read_lines, htm::kBroadwell.read_lines / 2);
  EXPECT_EQ(m.capacity_at(56).write_lines, htm::kBroadwell.write_lines / 2);
}

TEST(Args, ParsesFlags) {
  const char* argv[] = {"bench", "--full", "--profile=power8", "--measure=12345",
                        "--seed=9"};
  const Args a = Args::parse(5, const_cast<char**>(argv));
  EXPECT_TRUE(a.full);
  EXPECT_EQ(a.profile, "power8");
  EXPECT_EQ(a.measure_cycles, 12345u);
  EXPECT_EQ(a.seed, 9u);
  EXPECT_TRUE(a.want_profile("power8"));
  EXPECT_FALSE(a.want_profile("broadwell"));
}

TEST(Args, BothProfileMatchesEverything) {
  const char* argv[] = {"bench", "--profile=both"};
  const Args a = Args::parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(a.want_profile("broadwell"));
  EXPECT_TRUE(a.want_profile("power8"));
}

TEST(Args, SmokeParsedOnlyWhereTheBenchHasOne) {
  const char* argv[] = {"bench", "--smoke", "--seed=3"};
  const Args a = Args::parse(3, const_cast<char**>(argv), /*has_smoke=*/true);
  EXPECT_TRUE(a.smoke);
  EXPECT_EQ(a.seed, 3u);
  EXPECT_FALSE(Args::parse(1, const_cast<char**>(argv), true).smoke);
  // A bench without a reduced sweep must not silently run its full one.
  EXPECT_EXIT(Args::parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown option: --smoke");
}

// A mistyped flag or value must fail loudly instead of running the default
// sweep.
TEST(Args, BadCommandLinesExitTwo) {
  const auto exits_2 = [](const char* flag) {
    const char* argv[] = {"bench", flag};
    EXPECT_EXIT(Args::parse(2, const_cast<char**>(argv), true),
                ::testing::ExitedWithCode(2), "")
        << flag;
  };
  exits_2("--smok");
  exits_2("--fulll");
  exits_2("full");
  exits_2("--profile=skylake");
  exits_2("--measure=");
  exits_2("--measure=12k");
  exits_2("--measure=-1");
  exits_2("--measure=99999999999999999999999");
  exits_2("--seed=abc");
  exits_2("--seed= 7");
}

std::optional<CheckCli> parse_check(const std::vector<const char*>& args) {
  std::vector<char*> argv{const_cast<char*>("check_schedules")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return parse_check_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CheckCli, ParsesTheWorkloadShape) {
  const std::optional<CheckCli> cli =
      parse_check({"--dfs", "--threads", "2", "--writers", "2", "--ops", "3",
                   "--runs", "7", "--seed", "18446744073709551615", "--lock",
                   "TLE"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_TRUE(cli->dfs);
  EXPECT_FALSE(cli->pct);
  EXPECT_EQ(cli->workload.threads, 2);
  EXPECT_EQ(cli->workload.writers, 2);
  EXPECT_EQ(cli->workload.ops_per_thread, 3);
  EXPECT_EQ(cli->runs, 7u);
  EXPECT_EQ(cli->seed, 18446744073709551615u);
  EXPECT_EQ(cli->lock, "TLE");
}

// check_schedules exits 2 whenever parse_check_cli rejects its arguments.
TEST(CheckCli, RejectsMalformedNumbersAndShapes) {
  const std::vector<std::vector<const char*>> bad = {
      {"--threads", "abc"},
      {"--threads", "-1"},
      {"--threads", "0"},
      {"--threads", "2147483648"},
      {"--threads", "3x"},
      {"--writers", "4"},  // default --threads is 3
      {"--threads", "2", "--writers", "3"},
      {"--writers", " 1"},
      {"--ops", ""},
      {"--runs", "99999999999999999999999"},
      {"--runs", "+5"},
      {"--seed", "-7"},
      {"--seed"},
      {"--dfss"},
      {"--lock"},
  };
  for (const auto& args : bad) {
    std::string joined;
    for (const char* a : args) joined += std::string(a) + " ";
    EXPECT_FALSE(parse_check(args).has_value()) << joined;
  }
}

TEST(JsonWriter, ObjectsArraysAndScalars) {
  JsonWriter j;
  j.begin_object();
  j.key("bench").value("engine_ops");
  j.key("threads").value(8);
  j.key("ok").value(true);
  j.key("ratio").value(2.5);
  j.key("rows").begin_array();
  j.begin_object().key("n").value(std::uint64_t{1}).end_object();
  j.begin_object().key("n").value(std::uint64_t{2}).end_object();
  j.end_array();
  j.end_object();
  EXPECT_EQ(j.str(),
            "{\"bench\":\"engine_ops\",\"threads\":8,\"ok\":true,"
            "\"ratio\":2.5,\"rows\":[{\"n\":1},{\"n\":2}]}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter j;
  j.begin_array();
  j.value("a\"b\\c\nd\te\r");
  j.value(std::string(1, '\x01'));
  j.end_array();
  EXPECT_EQ(j.str(), "[\"a\\\"b\\\\c\\nd\\te\\r\",\"\\u0001\"]");
}

TEST(JsonWriter, EmptyContainersAndNestedArrays) {
  JsonWriter j;
  j.begin_object();
  j.key("empty_obj").begin_object().end_object();
  j.key("empty_arr").begin_array().end_array();
  j.key("nested").begin_array();
  j.begin_array().value(1).value(2).end_array();
  j.begin_array().end_array();
  j.end_array();
  j.end_object();
  EXPECT_EQ(j.str(),
            "{\"empty_obj\":{},\"empty_arr\":[],\"nested\":[[1,2],[]]}");
}

TEST(JsonWriter, WritesFile) {
  JsonWriter j;
  j.begin_object().key("x").value(7).end_object();
  const std::string path =
      testing::TempDir() + "/sprwl_jsonwriter_test.json";
  ASSERT_TRUE(j.write_file(path.c_str()));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"x\":7}");
}

}  // namespace
}  // namespace sprwl::bench

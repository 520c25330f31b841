// Command line of check_schedules (see bench/check_schedules.cpp for the
// modes and options). Numbers follow the Args::parse contract: a value
// that is not a plain decimal, or that overflows its field, is a usage
// error, as is a workload shape the harness cannot run.
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "bench/support/bench_common.h"
#include "check/harness.h"
#include "fault/fault.h"

namespace sprwl::bench {

struct CheckCli {
  bool dfs = false;
  bool pct = false;
  std::string replay_file;
  std::string lock;
  std::uint64_t runs = 200;
  std::uint64_t seed = fault::env_seed(1);
  std::string artifact_dir = ".";
  check::Workload workload;
};

/// Parses check_schedules' arguments. Returns nullopt, after naming the
/// offending argument on stderr, on an unknown option, a missing or
/// malformed value, --threads below 1, or --writers above --threads.
inline std::optional<CheckCli> parse_check_cli(int argc, char** argv) {
  CheckCli cli;
  const auto bad = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    return std::nullopt;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dfs") {
      cli.dfs = true;
      continue;
    }
    if (arg == "--pct") {
      cli.pct = true;
      continue;
    }
    if (i + 1 >= argc) return bad("unknown option or missing value: " + arg);
    const char* value = argv[++i];
    std::uint64_t n = 0;
    const bool numeric = parse_decimal(value, &n);
    const auto int_value = [&](int* field) {
      if (!numeric || n > INT_MAX) return false;
      *field = static_cast<int>(n);
      return true;
    };
    bool ok = true;
    if (arg == "--replay") {
      cli.replay_file = value;
    } else if (arg == "--lock") {
      cli.lock = value;
    } else if (arg == "--artifact-dir") {
      cli.artifact_dir = value;
    } else if (arg == "--runs") {
      ok = numeric;
      cli.runs = n;
    } else if (arg == "--seed") {
      ok = numeric;
      cli.seed = n;
    } else if (arg == "--threads") {
      ok = int_value(&cli.workload.threads);
    } else if (arg == "--writers") {
      ok = int_value(&cli.workload.writers);
    } else if (arg == "--ops") {
      ok = int_value(&cli.workload.ops_per_thread);
    } else {
      return bad("unknown option: " + arg);
    }
    if (!ok) return bad("not a decimal number in range: " + arg + " " + value);
  }
  if (cli.workload.threads < 1) return bad("--threads must be at least 1");
  if (cli.workload.writers > cli.workload.threads) {
    return bad("--writers must not exceed --threads");
  }
  return cli;
}

}  // namespace sprwl::bench

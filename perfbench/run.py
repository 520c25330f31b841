#!/usr/bin/env python3
"""Two-clock benchmark for the SpRWL reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n>
                             --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each exists): hashmap_short,
hashmap_long, tpcc, check_dfs.

The script builds perfbench/ (a CMake package compiling ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload as a series of fresh processes, one repetition each, until
--seconds have passed (at least MIN_REPS of them). It reports:

* host-clock metrics as the median over the processes: setup_s, run_s,
  peak_rss_mb (what the simulator costs; noisy, gated by bounds);
* virtual-clock metrics of the modelled machine: throughput, latency
  percentiles with their sample counts, layer counters. They are exact for
  a seed, and every process must reproduce them bit for bit;
* with --trace 1, one more process records spans around every layer call,
  writes a Chrome trace-event file next to the results, and adds the
  span-derived per-layer metrics. Its virtual-clock metrics must equal the
  untraced ones; its run_s minus the untraced median is the tracing
  overhead.

Correctness checks (each counted in `attempted`, failures in `failed`,
error_frac = failed / attempted): the workload's own output checks in every
process, virtual-clock identity across processes and against the traced
run, and, at the default window, at least 10 samples beyond each p99.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. A metric that does not
apply to the workload (say, TPC-C transaction latencies on a hash map) is
reported as 0. Virtual-clock end-to-end metrics are listed under per_layer
there because they exist only on the simulation workloads (dfs_exhausted
only on check_dfs) and are compared exactly, not within a bound; they are
printed on every run. The full result, with run metadata (git revision,
source digest, nproc, seed, window, compiler and flags), goes to
<build dir>/out/. The process exits 1 if any check failed and 2 on a bad
command line.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hashmap_short", "hashmap_long", "tpcc", "check_dfs")
SIMULATION = ("hashmap_short", "hashmap_long", "tpcc")
MIN_REPS = {"hashmap_short": 3, "hashmap_long": 3, "tpcc": 3, "check_dfs": 2}
# A run must finish within 180 s; stop starting repetitions well before.
DEADLINE_S = 150
# Virtual-clock metrics reported at the end-to-end level.
VIRTUAL_E2E = (
    "tx_per_vs", "read_p50_cyc", "read_p99_cyc", "write_p50_cyc",
    "write_p99_cyc", "read_samples", "write_samples", "read_p99_beyond",
    "write_p99_beyond", "dfs_exhausted",
)
HOST_E2E = ("setup_s", "run_s", "peak_rss_mb")
HOST_LAYER = ("setup.populate_s", "setup.engine_s", "setup.lock_s")


def uint_arg(minimum):
    """argparse type: a plain decimal integer in [minimum, 2**64)."""
    def parse(text):
        if not text.isascii() or not text.isdigit():
            raise argparse.ArgumentTypeError(
                f"not a decimal integer: {text!r}")
        value = int(text)
        if not minimum <= value < 2**64:
            raise argparse.ArgumentTypeError(f"out of range: {text}")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Two-clock SpRWL benchmark.", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=uint_arg(0))
    p.add_argument("--seconds", required=True, type=uint_arg(1))
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--window-cycles", type=uint_arg(1),
                   help="override the measured virtual window (self-test)")
    p.add_argument("--dfs-max-runs", type=uint_arg(1),
                   help="override the check_dfs schedule cap (self-test)")
    args = p.parse_args(argv)
    args.trace = int(args.trace)
    if args.window_cycles and args.workload not in SIMULATION:
        p.error("--window-cycles applies to the simulation workloads only")
    if args.dfs_max_runs and args.workload != "check_dfs":
        p.error("--dfs-max-runs applies to check_dfs only")
    return args


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures and builds perfbench; returns the binary path or exits 1."""
    if not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no library sources at {ROOT / 'src'}")
    bdir = build_dir()
    cmake_dir = bdir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"perfbench: build failed, see {log_path}")
    return cmake_dir / "perfbench"


def source_digest():
    """sha256 over the sources the benchmark builds, for comparing runs."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_rev():
    """HEAD of the repository rooted here; None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def run_once(binary, args, out, trace_file=None):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if trace_file else "0", "--out", str(out)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    if args.window_cycles:
        cmd += ["--window-cycles", str(args.window_cycles)]
    if args.dfs_max_runs:
        cmd += ["--dfs-max-runs", str(args.dfs_max_runs)]
    proc = subprocess.run(cmd, timeout=DEADLINE_S)
    if proc.returncode not in (0, 1) or not out.exists():
        sys.exit(f"perfbench: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(out.read_text())


def values(section):
    return {k: v["value"] for k, v in section.items()}


def first_difference(a, b):
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)} vs {b.get(key)}"
    return "identical"


def measure(binary, args, out_dir, trace_file):
    """Runs the repetitions; returns (reps, traced result or None)."""
    stem = f"{args.workload}-seed{args.seed}"
    reps = []
    start = time.monotonic()
    while True:
        out = out_dir / f"{stem}-rep{len(reps) + 1}.json"
        reps.append(run_once(binary, args, out))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS[args.workload] and (
                elapsed >= args.seconds or elapsed + 2 * per_rep > DEADLINE_S):
            break
    traced = None
    if args.trace:
        traced = run_once(binary, args, out_dir / f"{stem}-traced.json",
                          trace_file=trace_file)
    return reps, traced


def assemble(args, reps, traced):
    """Medians, exact metrics, checks -> (e2e, layer, checks, units)."""
    units = {}
    for rep in reps:
        for section in ("host", "exact"):
            units.update({k: v["unit"] for k, v in rep[section].items()})
    if traced:
        units.update({k: v["unit"] for k, v in traced["traced"].items()})

    checks = []
    for i, rep in enumerate(reps, 1):
        checks += [dict(c, name=f"rep{i}:{c['name']}") for c in rep["checks"]]
    exact = values(reps[0]["exact"])
    for i, rep in enumerate(reps[1:], 2):
        other = values(rep["exact"])
        checks.append({"name": f"rep{i}:virtual_metrics_equal_rep1",
                       "ok": other == exact,
                       "detail": first_difference(exact, other)})
    simulation = args.workload in SIMULATION
    if simulation and not args.window_cycles:
        for kind in ("read", "write"):
            beyond = exact.get(f"{kind}_p99_beyond", 0)
            checks.append({"name": f"{kind}_p99_tail_samples",
                           "ok": beyond >= 10,
                           "detail": f"{beyond} samples beyond {kind} p99"})

    host = {k: statistics.median(values(r["host"])[k] for r in reps)
            for k in values(reps[0]["host"])}
    e2e = {k: host[k] for k in HOST_E2E}
    e2e.update({k: exact[k] for k in VIRTUAL_E2E if k in exact})
    layer = {k: v for k, v in exact.items() if k not in VIRTUAL_E2E}
    layer.update({k: host[k] for k in HOST_LAYER if k in host})
    if simulation:
        switches = exact["sim.switches"]
        layer["sim.run_ns_per_switch"] = (
            host["run_s"] * 1e9 / switches if switches else 0)
        units["sim.run_ns_per_switch"] = "ns"
    else:
        schedules = sum(v for k, v in exact.items()
                        if k.startswith("check.") and k.endswith(".schedules"))
        layer["check.ns_per_schedule"] = (
            host["run_s"] * 1e9 / schedules if schedules else 0)
        units["check.ns_per_schedule"] = "ns"
    if traced:
        checks += [dict(c, name=f"traced:{c['name']}")
                   for c in traced["checks"]]
        traced_exact = values(traced["exact"])
        checks.append({"name": "traced:virtual_metrics_equal_untraced",
                       "ok": traced_exact == exact,
                       "detail": first_difference(exact, traced_exact)})
        layer.update(values(traced["traced"]))
        layer["trace.overhead_s"] = (
            values(traced["host"])["run_s"] - host["run_s"])
        units["trace.overhead_s"] = "s"
    failed = sum(1 for c in checks if not c["ok"])
    e2e["error_frac"] = failed / len(checks)
    units["error_frac"] = "ratio"
    return e2e, layer, checks, units


def main(argv):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    trace_file = out_dir / f"{args.workload}-seed{args.seed}-trace.json"
    reps, traced = measure(binary, args, out_dir, trace_file)
    e2e, layer, checks, units = assemble(args, reps, traced)
    failed = sum(1 for c in checks if not c["ok"])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": len(reps),
        "window": reps[0]["window"],
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": reps[0]["compiler"],
        "cxx_flags": reps[0]["cxx_flags"],
    }

    def show(title, metrics):
        print(f"== {title}")
        for name, value in metrics.items():
            print(f"{name:34s} {value:>22.10g} {units.get(name, '')}")

    print("== run metadata")
    for key, value in meta.items():
        print(f"{key:34s} {value}")
    show("end-to-end (host: median of %d processes; virtual: exact)"
         % len(reps), e2e)
    show("per-layer" + (" (traced run)" if traced else ""), layer)
    if traced:
        print("== spans (host self time only where no fiber switch "
              "intervened)")
        for line in traced["span_summary"]:
            print(line)
        print(f"trace file: {trace_file} "
              f"({traced['trace_events_written']} events)")
    print(f"== checks: {len(checks) - failed}/{len(checks)} passed")
    for c in checks:
        if not c["ok"]:
            print(f"FAILED {c['name']}: {c['detail']}")

    full = {"meta": meta, "end_to_end": e2e, "per_layer": layer,
            "units": units, "checks": checks}
    result_path = out_dir / (f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(full, indent=1) + "\n")
    print(f"result file: {result_path}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    pool = {**e2e, **layer}
    metrics = {m["name"]: {"value": pool.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

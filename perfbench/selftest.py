#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py (from the root).

Runs every workload at a tiny window and asserts that
* every metric of BENCHMARK.json appears in the final JSON line with its
  unit, and every metric that applies to the workload is printed by name
  with its unit in the readable output;
* two invocations with the same seed give identical virtual-clock metrics
  (and the traced run matches the untraced one), while a different seed
  changes them on the simulation workloads (check_dfs explores every
  schedule, so its seed changes nothing);
* the command line is strict: unknown flags, unknown workloads and
  malformed numbers exit 2, both in run.py and in the perfbench binary.
Exits 1 if any assertion fails.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

TINY = {
    "hashmap_short": ["--window-cycles", "200000"],
    "hashmap_long": ["--window-cycles", "400000"],
    "tpcc": ["--window-cycles", "200000"],
    "check_dfs": ["--dfs-max-runs", "300"],
}
HOST_UNITS = ("s", "ns", "MiB")
failures = []


def expect(ok, what):
    print(("ok     " if ok else "FAILED ") + what, flush=True)
    if not ok:
        failures.append(what)


def applies(name, workload):
    if name.startswith("check.") or name == "dfs_exhausted":
        return workload == "check_dfs"
    if name.startswith("tpcc."):
        return workload == "tpcc"
    if (name == "error_frac" or name.startswith("trace.")
            or name in run.HOST_E2E):
        return True
    return workload in run.SIMULATION


def bench(workload, seed, trace):
    cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + TINY[workload]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
    expect(proc.returncode == 0,
           f"{workload} seed {seed} trace {trace} exits 0 ({proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1]) if lines else {}
    expect(final.get("correct") is True and final.get("failed") == 0,
           f"{workload} seed {seed} trace {trace}: all checks pass")
    result = run.build_dir() / "out" / (
        f"result-{workload}-seed{seed}-trace{trace}.json")
    return proc.stdout, final, json.loads(result.read_text())


def virtual(result):
    metrics = {**result["end_to_end"], **result["per_layer"]}
    return {k: v for k, v in metrics.items()
            if result["units"].get(k) not in HOST_UNITS}


def check_names(workload, stdout, final, trace, spec):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = final.get("metrics", {})
    expect(list(got) == [m["name"] for m in wanted]
           and all(got[m["name"]]["unit"] == m["unit"] for m in wanted),
           f"{workload} trace {trace}: final line has every "
           f"{'per_layer' if trace else 'end_to_end'} metric with its unit")
    listed = spec["end_to_end"] + (spec["per_layer"] if trace else [
        m for m in spec["per_layer"] if m["name"] in run.VIRTUAL_E2E
        or m["name"] == "error_frac"])
    missing = [m["name"] for m in listed if applies(m["name"], workload)
               and not re.search(rf"^{re.escape(m['name'])}\s+\S+\s+"
                                 rf"{re.escape(m['unit'])}$", stdout, re.M)]
    expect(not missing, f"{workload} trace {trace}: printed with units "
           f"(missing: {missing})")


def check_cli():
    script = str(run.ROOT / "perfbench" / "run.py")
    base = ["--workload", "hashmap_short", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    bad = {
        "unknown flag": base + ["--smoke"],
        "typo'd flag": ["--sed" if a == "--seed" else a for a in base],
        "abbreviated flag": ["--work" if a == "--workload" else a
                             for a in base],
        "unknown workload": ["--workload", "hashmap"] + base[2:],
        "malformed seed": base[:2] + ["--seed", "1x"] + base[4:],
        "negative seed": base[:2] + ["--seed", "-1"] + base[4:],
        "underscored seed": base[:2] + ["--seed", "1_0"] + base[4:],
        "padded trace": base[:6] + ["--trace", "01"],
        "zero seconds": base[:4] + ["--seconds", "0"] + base[6:],
        "bad trace": base[:6] + ["--trace", "2"],
    }
    for what, argv in bad.items():
        rc = subprocess.run([sys.executable, script] + argv,
                            capture_output=True).returncode
        expect(rc == 2, f"run.py rejects {what} (exit {rc})")
    binary = run.build()
    out = run.build_dir() / "out" / "selftest-cli.json"
    good = ["--workload", "check_dfs", "--seed", "1", "--trace", "0",
            "--out", str(out)]
    bad = {
        "unknown flag": good + ["--smoke", "1"],
        "duplicate flag": good + ["--seed", "2"],
        "missing flag": good[2:],
        "unknown workload": ["--workload", "hashmap"] + good[2:],
        "malformed seed": good[:2] + ["--seed", "0x10"] + good[4:],
        "bad trace": good[:4] + ["--trace", "3"] + good[6:],
        "inapplicable window": good + ["--window-cycles", "1000"],
    }
    for what, argv in bad.items():
        rc = subprocess.run([str(binary)] + argv,
                            capture_output=True).returncode
        expect(rc == 2, f"perfbench rejects {what} (exit {rc})")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_cli()
    for workload in run.WORKLOADS:
        out0, final0, res0 = bench(workload, 7, 0)
        check_names(workload, out0, final0, 0, spec)
        out1, final1, res1 = bench(workload, 7, 1)
        check_names(workload, out1, final1, 1, spec)
        v0, v1 = virtual(res0), virtual(res1)
        expect(all(v1.get(k) == v for k, v in v0.items()),
               f"{workload}: same seed, identical virtual-clock metrics")
        _, _, res2 = bench(workload, 8, 0)
        v2 = virtual(res2)
        if workload in run.SIMULATION:
            expect(v2 != v0, f"{workload}: another seed changes them")
        else:
            expect(v2 == v0, f"{workload}: DFS is seed-independent")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

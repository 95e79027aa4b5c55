#!/usr/bin/env python3
"""End-to-end design-run benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload svc_sweep --seed 1 --trace 0
    python3 perfbench/run.py --all            # every workload, tracing off

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the library plus perfbench_runner) into
.bench_build/perfbench; later calls only re-check the build.  Build output
goes to stderr.

The runner's result is checked against BENCHMARK.json: with --trace 0 every
end_to_end metric, with --trace 1 every per_layer metric, must be present
with its unit.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
run info (result digest, manifest with seed, backend and pool width).  The
exit code is 0 only when the build, the run and every output check pass.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
# table1 is the whole Table I run; it is not in BENCHMARK.json (see README).
ALL_WORKLOADS = ("table1", "svc_sweep", "fault_yield")
# Generous cap so a hung runner is still stopped and reaped.
RUNNER_TIMEOUT_S = 900


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_runner", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def invoke_runner(workload, seed, seconds, trace, smoke):
    """Run one workload; return (exit code, info dict, result dict)."""
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-file",
                str(BUILD_DIR / f"trace_{workload}_seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUNNER_TIMEOUT_S} s")
        return 1, None, None
    lines = proc.stdout.strip().splitlines()
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        log(f"perfbench: {workload}: no result from the runner "
            f"(exit {proc.returncode})")
        return proc.returncode or 1, None, None
    return proc.returncode, info, result


def check_result(result, wanted):
    """Keep exactly the `wanted` metrics; return (result, problems)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected result keys {sorted(result)}")
    metrics = {}
    for spec in wanted:
        got = result.get("metrics", {}).get(spec["name"])
        if got is None:
            problems.append(f"missing metric {spec['name']}")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{spec['name']}: bad value {value!r}")
        if got.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got.get('unit')!r}, "
                            f"expected {spec['unit']!r}")
        metrics[spec["name"]] = got
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted must be an int >= 1: {attempted!r}")
    if not isinstance(failed, int) or failed < 0:
        problems.append(f"failed must be an int >= 0: {failed!r}")
    checked = {"correct": bool(result.get("correct")) and not problems,
               "attempted": attempted, "failed": failed, "metrics": metrics}
    return checked, problems


def run_one(workload, seed, seconds, trace, smoke, spec):
    """Run and check one workload; return (ok, info, checked result)."""
    code, info, result = invoke_runner(workload, seed, seconds, trace, smoke)
    if result is None:
        return False, None, None
    checked, problems = check_result(
        result, spec["per_layer" if trace else "end_to_end"])
    for p in problems:
        log(f"perfbench: {workload}: {p}")
    ok = code == 0 and checked["correct"] and not problems
    return ok, info, checked


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=ALL_WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a metric table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: one dataset, a few designs, two passes")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not build():
        return 1

    if not args.all:
        ok, info, checked = run_one(args.workload, args.seed, seconds,
                                    args.trace == 1, args.smoke, spec)
        if checked is None:
            return 1
        print(json.dumps({"info": info}))
        print(json.dumps(checked), flush=True)
        return 0 if ok else 1

    all_ok = True
    rows = []
    for workload in ALL_WORKLOADS:
        ok, info, checked = run_one(workload, args.seed, seconds,
                                    args.trace == 1, args.smoke, spec)
        all_ok &= ok
        if checked is None:
            rows.append((workload, "-", "no result", ""))
            continue
        fail_frac = checked["failed"] / checked["attempted"]
        rows.append((workload, "fail_frac", f"{fail_frac:.6g}", "frac"))
        rows.append((workload, "digest", info.get("digest", "-"), ""))
        for name, m in checked["metrics"].items():
            rows.append((workload, name, f"{m['value']:.6g}", m["unit"]))
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:<12} {name:<{width}} {value:>18} {unit}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload, with tracing off and on, runs perfbench/run.py --smoke
(one dataset, a few designs, two passes) and asserts that:
  * the run exits 0 with correct == true and failed == 0;
  * every metric BENCHMARK.json names for that mode is printed with its
    unit (run.py checks names and units; this re-checks the final line);
  * the passes of the run produced equal result digests, and the traced
    and untraced runs of a workload equal ones.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1", "svc_sweep", "fault_yield")


def check(cond, msg):
    if not cond:
        sys.exit(f"FAIL {msg}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{label}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0, label)
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                check(got is not None, f"{label}: {m['name']} missing")
                check(got["unit"] == m["unit"], f"{label}: {m['name']} unit")
            check(set(result["metrics"]) == {m["name"] for m in wanted}, label)
            check(info["digests_equal"], f"{label}: pass digests differ")
            passes = 2 if trace else info["passes"]
            check(passes >= 2, f"{label}: only {passes} pass")
            digests.add(info["digest"])
            print(f"ok  {label}: digest {info['digest']}, "
                  f"{len(wanted)} metrics")
        check(len(digests) == 1, f"{workload}: digests differ across runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json once untraced and once traced
with ``--size tiny``, and fails unless each run reports exactly the metric
names and units BENCHMARK.json lists for its mode, no task failed
(error_ratio 0), and both runs print the same output digest.  Takes about a
minute, most of it the branch-and-bound certification of F_UNSAT4, which
has no smaller size.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.split()[-1] for ln in lines if ln.startswith("digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in (0, 1):
            try:
                result, digest = run(workload, trace)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                problems.append(str(exc))
                continue
            digests.append(digest)
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if units != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics {units} != {expected[trace]}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{workload} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']} of {result['attempted']}")
        if len(set(digests)) != 1:
            problems.append(f"{workload}: digests differ between runs: {digests}")
        print(f"{workload}: digests {digests}")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

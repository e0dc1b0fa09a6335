#!/usr/bin/env python3
"""Cost of one branch-and-bound node: counts and wall times of branch_bound_w.

    python3 scripts/oracle_layers.py --reps 15 --out BENCH_oracle.json

For each instance (the NAE gadgets F_SAT3 and F_UNSAT4, and gen_random(5, 20)
seeds 0 and 1) it records the search's counters (popped nodes, nodes cut by
the flip symmetries, leaves evaluated), the matrices eigensolved and the
eig_extremes_stack calls (counted in one extra run), the median and
interquartile range of the wall time over --reps timed runs, its minimum
(the run least slowed by other load on the machine, so the column to compare
between runs taken at different times), and the microseconds per popped node
at the median.  The JSON file also names the machine and the peak RSS of this
process.  BLAS runs on one thread, as in the benchmark.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import ks2 from the checkout's src/ directory, not an installed copy.
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from ks2 import oracle
from ks2.instance import gen_random
from ks2.reduction import F_SAT3, F_UNSAT4, ks_form_to_instance

INSTANCES = {
    "F_SAT3": lambda: ks_form_to_instance(F_SAT3)[0],
    "F_UNSAT4": lambda: ks_form_to_instance(F_UNSAT4)[0],
    "gen_random(5, 20, seed=0)": lambda: gen_random(5, 20, seed=0),
    "gen_random(5, 20, seed=1)": lambda: gen_random(5, 20, seed=1),
}


def counted(inst):
    """branch_bound_w(inst) with its eigensolve calls and matrices counted."""
    sizes = []
    real = oracle.eig_extremes_stack

    def counting(stack):
        sizes.append(len(stack))
        return real(stack)

    oracle.eig_extremes_stack = counting
    try:
        res = oracle.branch_bound_w(inst)
    finally:
        oracle.eig_extremes_stack = real
    return res, len(sizes), sum(sizes)


def measure(inst, reps):
    res, calls, matrices = counted(inst)
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        oracle.branch_bound_w(inst)
        walls.append(time.perf_counter() - t0)
    q1, median, q3 = np.percentile(walls, [25, 50, 75])
    return {
        "m": inst.num_vectors, "d": inst.dim, "w": res.w_value,
        "nodes": res.nodes, "cut": res.cut, "leaves": res.eigensolved,
        "eigensolved_matrices": matrices, "eig_calls": calls,
        "wall_median_s": median, "wall_iqr_s": q3 - q1, "wall_min_s": min(walls),
        "reps": reps,
        "us_per_node": median * 1e6 / res.nodes,
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=15, help="timed runs per instance")
    ap.add_argument("--instances", nargs="+", choices=list(INSTANCES), default=list(INSTANCES))
    ap.add_argument("--out", default=str(ROOT / "BENCH_oracle.json"))
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    records = {}
    for name in args.instances:
        records[name] = measure(INSTANCES[name](), args.reps)
        r = records[name]
        print(f"{name}: {r['nodes']} nodes ({r['cut']} cut, {r['leaves']} leaves),"
              f" {r['eigensolved_matrices']} matrices in {r['eig_calls']} calls,"
              f" {r['wall_median_s'] * 1e3:.1f} ms (IQR {r['wall_iqr_s'] * 1e3:.1f},"
              f" min {r['wall_min_s'] * 1e3:.1f}),"
              f" {r['us_per_node']:.2f} us/node")
    report = {"instances": records, "machine": machine(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

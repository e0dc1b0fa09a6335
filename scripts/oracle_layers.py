#!/usr/bin/env python3
"""Cost of one branch-and-bound node: counts and wall times of branch_bound_w.

    python3 scripts/oracle_layers.py --reps 15 --out BENCH_oracle.json
    python3 scripts/oracle_layers.py --rounds 10 --reps 3 --against ../other-checkout

For each instance (the NAE gadgets F_SAT3 and F_UNSAT4, gen_random(5, 20)
seeds 0 and 1, and gen_planted(5, 12) seed 0, whose vectors come in equal
pairs) it records the search's counters (popped nodes, nodes cut by the
symmetries, leaves evaluated), the matrices eigensolved and the
eig_extremes_stack calls (counted in one extra run), the median and
interquartile range of the wall time over every timed run, its minimum, and
the microseconds per popped node at the median.  The runs are timed in child
processes, --rounds of --reps runs per instance (scripts/layers.py).  With
--against, every round also times the other checkout's src/ on the same
instance, alternating with this one, and the record gains that checkout's
timings and counters, the ratio of the medians and the rounds in which this
checkout's median was lower: timings taken minutes apart on a shared
machine compare the machine, not the code.  The JSON file also names the
machine and the peak RSS of this process and its timing children.  BLAS
runs on one thread, as in the benchmark.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # a timing child has already put its checkout's src/ first
    sys.path.insert(0, str(ROOT / "src"))

import layers
from ks2 import oracle
from ks2.instance import gen_planted, gen_random
from ks2.reduction import F_SAT3, F_UNSAT4, ks_form_to_instance

INSTANCES = {
    "F_SAT3": lambda: ks_form_to_instance(F_SAT3)[0],
    "F_UNSAT4": lambda: ks_form_to_instance(F_UNSAT4)[0],
    "gen_random(5, 20, seed=0)": lambda: gen_random(5, 20, seed=0),
    "gen_random(5, 20, seed=1)": lambda: gen_random(5, 20, seed=1),
    "gen_planted(5, 12, seed=0)": lambda: gen_planted(5, 12, seed=0)[0],
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


def wall_times(name, reps):
    """Wall times of reps calls of branch_bound_w on one instance (a timing child)."""
    inst = INSTANCES[name]()
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        oracle.branch_bound_w(inst)
        walls.append(time.perf_counter() - t0)
    return walls


def counts(name):
    """The search's counters on one instance (a child on another checkout)."""
    res = oracle.branch_bound_w(INSTANCES[name]())
    return {"nodes": res.nodes, "cut": res.cut, "leaves": res.eigensolved}


def measure(name, args):
    inst = INSTANCES[name]()
    res, calls, matrices = counted(inst)
    checkouts = [ROOT] + ([args.against] if args.against else [])
    walls = layers.alternate("oracle_layers", name, checkouts, args.reps, args.rounds)
    record = {
        "m": inst.num_vectors, "d": inst.dim, "w": res.w_value,
        "nodes": res.nodes, "cut": res.cut, "leaves": res.eigensolved,
        "eigensolved_matrices": matrices, "eig_calls": calls,
        **layers.summary(walls[0]),
    }
    record["us_per_node"] = record["wall_median_s"] * 1e6 / res.nodes
    if args.against:
        record["against"] = {**layers.compare(walls[0], walls[1], args.against),
                             **layers.child(args.against, "oracle_layers", "counts", name)}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=15, help="timed runs per child")
    ap.add_argument("--rounds", type=int, default=1, help="timing children per checkout")
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="another checkout whose src/ is timed alternately with this one")
    ap.add_argument("--instances", nargs="+", choices=list(INSTANCES), default=list(INSTANCES))
    ap.add_argument("--out", default=str(ROOT / "BENCH_oracle.json"))
    args = ap.parse_args(argv)
    if args.reps < 1 or args.rounds < 1:
        ap.error("--reps and --rounds must be at least 1")
    if args.against and not (Path(args.against) / "src" / "ks2").is_dir():
        ap.error(f"--against {args.against}: no src/ks2 there")
    records = {}
    for name in args.instances:
        records[name] = r = measure(name, args)
        line = (f"{name}: {r['nodes']} nodes ({r['cut']} cut, {r['leaves']} leaves),"
                f" {r['eigensolved_matrices']} matrices in {r['eig_calls']} calls,"
                f" {r['wall_median_s'] * 1e3:.1f} ms (IQR {r['wall_iqr_s'] * 1e3:.1f},"
                f" min {r['wall_min_s'] * 1e3:.1f}), {r['us_per_node']:.2f} us/node")
        if args.against:
            a = r["against"]
            line += (f"; against {a['nodes']} nodes, {a['wall_median_s'] * 1e3:.1f} ms, ratio"
                     f" {a['median_ratio']:.3f}, faster in {a['rounds_this_faster']}"
                     f" of {a['rounds']} rounds")
        print(line)
    report = {"instances": records, "machine": layers.machine(),
              "peak_rss_mb": layers.peak_rss_mb()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

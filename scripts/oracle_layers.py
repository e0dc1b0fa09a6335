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
import layers  # first: pins BLAS before numpy loads, puts src/ on sys.path
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


def wall_times(name, reps):
    """Wall times of reps calls of branch_bound_w on one instance (a timing child)."""
    inst = INSTANCES[name]()
    return layers.walls(lambda: oracle.branch_bound_w(inst), reps)


def counts(name):
    """The search's counters on one instance (a child on another checkout)."""
    res = oracle.branch_bound_w(INSTANCES[name]())
    return {"nodes": res.nodes, "cut": res.cut, "leaves": res.eigensolved}


def measure(name, args):
    inst = INSTANCES[name]()
    with layers.counting([(oracle, "eig_extremes_stack", len)]) as (sizes,):
        res = oracle.branch_bound_w(inst)
    this, other = layers.timed("oracle_layers", name, args)
    record = {
        "m": inst.num_vectors, "d": inst.dim, "w": res.w_value,
        "nodes": res.nodes, "cut": res.cut, "leaves": res.eigensolved,
        "eigensolved_matrices": sum(sizes), "eig_calls": len(sizes), **this,
    }
    record["us_per_node"] = record["wall_median_s"] * 1e6 / res.nodes
    if other:
        record["against"] = {**other, **layers.child(args.against, "oracle_layers", "counts", name)}
    return record


def describe(name, r):
    a = r.get("against")
    return (f"{name}: {r['nodes']} nodes ({r['cut']} cut, {r['leaves']} leaves),"
            f" {r['eigensolved_matrices']} matrices in {r['eig_calls']} calls,"
            f" {r['wall_median_s'] * 1e3:.1f} ms (IQR {r['wall_iqr_s'] * 1e3:.1f},"
            f" min {r['wall_min_s'] * 1e3:.1f}), {r['us_per_node']:.2f} us/node",
            a and f"{a['nodes']} nodes, {a['wall_median_s'] * 1e3:.1f} ms")


if __name__ == "__main__":
    raise SystemExit(layers.main(__doc__, INSTANCES, measure, describe, "BENCH_oracle.json"))

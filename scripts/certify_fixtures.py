#!/usr/bin/env python3
"""Full certification run for the two reference formulas.

For the satisfiable one: checks the constructed family is isotropic, the
assignment subset sums to I/2, and the branch-and-bound oracle confirms the
optimum discrepancy is zero.  For the unsatisfiable one: certifies the
optimum stays above the hardness gap and that sampled subsets all expose a
violation witness at least 1/(8*sqrt(2)) away from 1/2.
"""
import argparse
import math
import sys
import time
from pathlib import Path

# Import ks2 from the checkout's src/ directory, not an installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ks2.oracle import _cut_permutations, _symmetries, branch_bound_w
from ks2.prng import Stream, derive_key, TAG_SUBSET
from ks2.reduction import (
    F_SAT3,
    F_UNSAT4,
    assignment_to_subset,
    find_violation,
    ks_form_to_instance,
    nae_brute_solve,
)
from ks2.instance import subset_distance


def search_counts(inst, res, t0):
    """The search's counters, the symmetry generators it found by kind, and
    how many permutations (the generators, their pairwise products and the
    transpositions) it cut by."""
    found = _symmetries(inst.vectors)
    perms = len(_cut_permutations(inst.vectors))
    return (f"{len(found['flips'])} flips, {len(found['permutations'])} signed coordinate"
            f" permutations, {len(found['transpositions'])} equal-row transpositions,"
            f" cut by {perms} permutations, {res.eigensolved} leaves eigensolved,"
            f" {res.nodes} nodes of which {res.cut} cut, {time.time() - t0:.1f}s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=2000,
                    help="random subsets to test on the unsatisfiable instance")
    ap.add_argument("--node-limit", type=int, default=50_000_000)
    args = ap.parse_args()
    gap = 1.0 / (8.0 * math.sqrt(2.0))

    print("== satisfiable fixture ==")
    inst, layout = ks_form_to_instance(F_SAT3)
    print(f"instance: m={inst.num_vectors} d={inst.dim} alpha={inst.alpha}"
          f" iso_dev={inst.isotropy_deviation():.2e}")
    assignment = nae_brute_solve(F_SAT3)
    s = assignment_to_subset(layout, assignment)
    print(f"assignment {assignment} -> subset of {len(s)} vectors,"
          f" distance from I/2 = {subset_distance(inst, s):.2e}")
    t0 = time.time()
    res = branch_bound_w(inst, node_limit=args.node_limit)
    print(f"branch-and-bound optimum: {res.w_value:.3e} ({search_counts(inst, res, t0)})")

    print("\n== unsatisfiable fixture ==")
    inst, layout = ks_form_to_instance(F_UNSAT4)
    print(f"instance: m={inst.num_vectors} d={inst.dim} alpha={inst.alpha}"
          f" iso_dev={inst.isotropy_deviation():.2e}")
    assert nae_brute_solve(F_UNSAT4) is None
    t0 = time.time()
    res = branch_bound_w(inst, node_limit=args.node_limit)
    print(f"branch-and-bound optimum: {res.w_value:.9f} ({search_counts(inst, res, t0)})")
    print(f"hardness gap 1/(8*sqrt(2)) = {gap:.9f}:"
          f" {'certified' if res.w_value >= gap - 1e-9 else 'VIOLATED'}")

    worst = math.inf
    t0 = time.time()
    for seed in range(args.samples):
        stream = Stream(derive_key(seed, TAG_SUBSET))
        subset = [i for i in range(inst.num_vectors) if stream.uniform() < 0.5]
        witness = find_violation(layout, inst, subset)
        assert witness is not None
        b = inst.gram(subset).a
        worst = min(worst, abs(float(witness.y @ b @ witness.y) - 0.5))
    print(f"{args.samples} sampled subsets: min witness value {worst:.7f}"
          f" (bound {gap:.7f}, {time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()

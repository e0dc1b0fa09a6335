#!/usr/bin/env python3
"""Empirical find-rate of the level-set solver on planted instances.

Every instance hides a subset summing to exactly I/2, so a perfect solver
would find a band member every time; the theory promises a find rate of at
least 1 - 2/d.  Prints the rate, timing, mean peak level, mean number of
entries dropped by completion-bound pruning, the least saturation margin and
the number of runs it certifies (every sampling probability provably 1) per
configuration.
"""
import argparse
import sys
import time
from pathlib import Path

# Import ks2 from the checkout's src/ directory, not an installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ks2.instance import check_subset, gen_planted
from ks2.solver import derive_params, saturation_margin, solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--k", type=int, default=8, help="planted pairs (m = 2k)")
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--c", type=float, default=0.1)
    ap.add_argument("--epsilon", type=float, default=0.3)
    args = ap.parse_args()

    print(f"{'d':>3} {'m':>4} {'found':>9} {'rate':>6} {'1-2/d':>6} {'sec/run':>8}"
          f" {'peak':>8} {'pruned':>8} {'margin':>9} {'certified':>9}")
    for d in args.d:
        k = max(args.k, d)
        found = peak = pruned = certified = 0
        least = float("inf")
        t0 = time.time()
        for seed in range(args.seeds):
            inst, _ = gen_planted(d, k, seed=seed)
            margin = saturation_margin(inst, derive_params(inst, args.c, args.epsilon))
            least = min(least, margin)
            certified += margin >= 1.0
            out = solve(inst, args.c, args.epsilon, seed=seed)
            if out.found:
                assert check_subset(inst, out.subset, args.c, args.epsilon).satisfies_eq2
                found += 1
            peak += out.stats.peak_level_size
            pruned += out.stats.pruned
        per = (time.time() - t0) / args.seeds
        print(f"{d:>3} {2 * k:>4} {found:>4}/{args.seeds:<4} {found / args.seeds:>6.2f}"
              f" {1 - 2 / d:>6.2f} {per:>8.2f} {peak / args.seeds:>8.1f}"
              f" {pruned / args.seeds:>8.1f} {least:>9.3g} {certified:>4}/{args.seeds:<4}")


if __name__ == "__main__":
    main()

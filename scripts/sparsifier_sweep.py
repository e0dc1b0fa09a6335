#!/usr/bin/env python3
"""Sandwich success rate and sample counts of the online sparsifier.

Feeds seeded isotropic instances through the sampler for a grid of
(mu, delta) and reports how often (1-mu) I - delta I <= B <= (1+mu) I + delta I
holds, alongside the observed sample counts.  The guarantee is a success
probability of at least 1 - 1/d.
"""
import argparse
import sys
from pathlib import Path

# Import ks2 from the checkout's src/ directory, not an installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ks2.instance import gen_random
from ks2.linalg import SymMatrix, psd_sandwich_check
from ks2.prng import Stream, derive_key
from ks2.sparsifier import new_state, observe


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=10)
    ap.add_argument("--m", type=int, default=500)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--mu", type=float, nargs="+", default=[0.1, 0.25, 0.5, 0.9])
    ap.add_argument("--delta", type=float, nargs="+", default=[0.01, 0.05, 0.2])
    args = ap.parse_args()

    eye = SymMatrix.identity(args.d)
    print(f"{'mu':>5} {'delta':>6} {'sandwich':>9} {'min#':>6} {'mean#':>7} {'max#':>6}")
    for mu in args.mu:
        for delta in args.delta:
            ok = 0
            counts = []
            for seed in range(args.seeds):
                inst = gen_random(args.d, args.m, seed=seed)
                state = new_state(args.d, mu, delta)
                u = Stream(derive_key(seed, 77))
                for i in range(args.m):
                    state, _ = observe(state, i, inst.vectors[i], u.uniform())
                ok += psd_sandwich_check(eye, state.b, mu, delta)
                counts.append(state.sample_count)
            print(f"{mu:>5.2f} {delta:>6.2f} {ok:>4}/{args.seeds:<4} {min(counts):>6}"
                  f" {sum(counts) / len(counts):>7.1f} {max(counts):>6}")


if __name__ == "__main__":
    main()

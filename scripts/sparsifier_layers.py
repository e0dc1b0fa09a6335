#!/usr/bin/env python3
"""Cost of one sampling step: counts and wall times of observe streams.

    python3 scripts/sparsifier_layers.py --reps 15 --out BENCH_sparsifier.json
    python3 scripts/sparsifier_layers.py --rounds 10 --reps 3 --against ../other-checkout

Each instance is one stream of the benchmark's sparsify-stream shape: the
4000 vectors of gen_random(10, 4000) fed to observe in order, at mu = 0.5
and delta = 0.05, with uniform draws from numpy's default_rng of the same
seed, so that most draws have p < 1.  Per stream it records the keeps, the
skips, the keeps at p = 1 and the shifted solves (counted in one extra run),
the final ledger hash, the median, interquartile range and minimum of the
wall time of the whole stream over every timed run, and the microseconds per
observe at the median.  Runs are timed in child processes as in
oracle_layers.py (scripts/layers.py), and --against times another
checkout's src/ alternately with this one; the record then also holds that
checkout's counts and ledger hash, which must equal this one's.  The JSON
file also names the machine and the peak RSS of this process and its timing
children.  BLAS runs on one thread, as in the benchmark.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # a timing child has already put its checkout's src/ first
    sys.path.insert(0, str(ROOT / "src"))

import layers
from ks2 import sparsifier
from ks2.instance import gen_random

D, M, MU, DELTA = 10, 4000, 0.5, 0.05
INSTANCES = {f"gen_random({D}, {M}, seed={s})": s for s in range(3)}  # name -> seed


def _stream_input(name):
    """The stream's vectors and its uniform draws."""
    seed = INSTANCES[name]
    return gen_random(D, M, seed=seed), np.random.default_rng(seed).random(M).tolist()


def _stream(inst, draws):
    state = sparsifier.new_state(D, MU, DELTA)
    for i, (v, u) in enumerate(zip(inst.vectors, draws)):
        state, _ = sparsifier.observe(state, i, v, u)
    return state


def counts(name):
    """A stream's keeps, skips and shifted solves, and its final ledger hash."""
    solves = []
    real = sparsifier.spd_solve_stack

    def counting(stack, shift, v):
        solves.append(1)
        return real(stack, shift, v)

    sparsifier.spd_solve_stack = counting
    try:
        state = _stream(*_stream_input(name))
    finally:
        sparsifier.spd_solve_stack = real
    return {"keeps": state.sample_count, "skips": M - state.sample_count,
            "saturated_keeps": sum(w == 1.0 for _, w in state.ledger),
            "shifted_solves": len(solves), "ledger_hash": f"{state.ledger_hash:016x}"}


def wall_times(name, reps):
    """Wall times of reps whole streams (a timing child)."""
    inst, draws = _stream_input(name)
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _stream(inst, draws)
        walls.append(time.perf_counter() - t0)
    return walls


def measure(name, args):
    record = {"d": D, "m": M, "mu": MU, "delta": DELTA, **counts(name)}
    checkouts = [ROOT] + ([args.against] if args.against else [])
    walls = layers.alternate("sparsifier_layers", name, checkouts, args.reps, args.rounds)
    record.update(layers.summary(walls[0]))
    record["us_per_observe"] = record["wall_median_s"] * 1e6 / M
    if args.against:
        other = {**layers.compare(walls[0], walls[1], args.against),
                 **layers.child(args.against, "sparsifier_layers", "counts", name)}
        other["us_per_observe"] = other["wall_median_s"] * 1e6 / M
        record["against"] = other
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=15, help="timed runs per child")
    ap.add_argument("--rounds", type=int, default=1, help="timing children per checkout")
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="another checkout whose src/ is timed alternately with this one")
    ap.add_argument("--instances", nargs="+", choices=list(INSTANCES), default=list(INSTANCES))
    ap.add_argument("--out", default=str(ROOT / "BENCH_sparsifier.json"))
    args = ap.parse_args(argv)
    if args.reps < 1 or args.rounds < 1:
        ap.error("--reps and --rounds must be at least 1")
    if args.against and not (Path(args.against) / "src" / "ks2").is_dir():
        ap.error(f"--against {args.against}: no src/ks2 there")
    records = {}
    for name in args.instances:
        records[name] = r = measure(name, args)
        line = (f"{name}: {r['keeps']} keeps ({r['saturated_keeps']} at p = 1), {r['skips']} skips,"
                f" {r['shifted_solves']} shifted solves, ledger {r['ledger_hash']},"
                f" {r['wall_median_s'] * 1e3:.1f} ms (IQR {r['wall_iqr_s'] * 1e3:.1f},"
                f" min {r['wall_min_s'] * 1e3:.1f}), {r['us_per_observe']:.2f} us/observe")
        if args.against:
            a = r["against"]
            line += (f"; against {a['us_per_observe']:.2f} us/observe, ledger {a['ledger_hash']},"
                     f" ratio {a['median_ratio']:.3f}, faster in {a['rounds_this_faster']}"
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

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
import layers  # first: pins BLAS before numpy loads, puts src/ on sys.path
import numpy as np

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
    with layers.counting([(sparsifier, "spd_solve_stack", lambda *_: 1)]) as (solves,):
        state = _stream(*_stream_input(name))
    return {"keeps": state.sample_count, "skips": M - state.sample_count,
            "saturated_keeps": sum(w == 1.0 for _, w in state.ledger),
            "shifted_solves": len(solves), "ledger_hash": f"{state.ledger_hash:016x}"}


def wall_times(name, reps):
    """Wall times of reps whole streams (a timing child)."""
    inst, draws = _stream_input(name)
    return layers.walls(lambda: _stream(inst, draws), reps)


def measure(name, args):
    record = {"d": D, "m": M, "mu": MU, "delta": DELTA, **counts(name)}
    this, other = layers.timed("sparsifier_layers", name, args)
    record.update(this, us_per_observe=this["wall_median_s"] * 1e6 / M)
    if other:
        other.update(layers.child(args.against, "sparsifier_layers", "counts", name))
        other["us_per_observe"] = other["wall_median_s"] * 1e6 / M
        record["against"] = other
    return record


def describe(name, r):
    a = r.get("against")
    return (f"{name}: {r['keeps']} keeps ({r['saturated_keeps']} at p = 1), {r['skips']} skips,"
            f" {r['shifted_solves']} shifted solves, ledger {r['ledger_hash']},"
            f" {r['wall_median_s'] * 1e3:.1f} ms (IQR {r['wall_iqr_s'] * 1e3:.1f},"
            f" min {r['wall_min_s'] * 1e3:.1f}), {r['us_per_observe']:.2f} us/observe",
            a and f"{a['us_per_observe']:.2f} us/observe, ledger {a['ledger_hash']}")


if __name__ == "__main__":
    raise SystemExit(layers.main(__doc__, INSTANCES, measure, describe, "BENCH_sparsifier.json"))

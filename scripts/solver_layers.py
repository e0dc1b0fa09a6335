#!/usr/bin/env python3
"""Cost of one search node of the solver: counts and wall times of solve.

    python3 scripts/solver_layers.py --reps 15 --out BENCH_solver.json
    python3 scripts/solver_layers.py --rounds 10 --reps 5 --against ../other-checkout

For each instance it records the saturation margin and whether it certifies
the run, the outcome's searches (levels), most nodes one search gated,
popped and pruned nodes, the matrices the gate and the prune eigensolved,
the shifted solves and uniform draws of the sampled path (all counted in
one extra run), the median, interquartile range and minimum of the wall time
over every timed run, and the microseconds per popped node at the median.
The instances are the four planted d=5, m=16 instances of the benchmark's
solve-planted workload and two runs with a forced mu = 1, whose sampling
probabilities fall below 1: gen_random(3, 14) finds its subset before it
draws, and gen_random(3, 16) at c = 0.05 draws uniforms on its way.  A
forced mu lies outside the paper's theorem; such a record is marked
"forced_mu" and its printed line says so.  Runs are timed in child
processes as in oracle_layers.py (scripts/layers.py), and --against times
another checkout's src/ alternately with this one.  The JSON file also names
the machine and the peak RSS of this process and its timing children.  BLAS
runs on one thread, as in the benchmark.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # a timing child has already put its checkout's src/ first
    sys.path.insert(0, str(ROOT / "src"))

import layers
from ks2 import oracle, prng, solver
from ks2.instance import Instance, gen_planted, gen_random


def _planted(seed):
    return lambda: (gen_planted(5, 8, seed=seed)[0], 0.1, 0.3, seed, None)


def _mu1(m, seed, c):
    def make():
        inst = gen_random(3, m, seed=seed)
        return inst, c, 0.3, seed, dataclasses.replace(solver.derive_params(inst, c, 0.3), mu=1.0)
    return make


# name -> () -> (instance, c, epsilon, solver seed, params_override)
INSTANCES = {
    **{f"gen_planted(5, 8, seed={s})": _planted(s) for s in range(4)},
    "gen_random(3, 14, seed=3), mu=1": _mu1(14, 3, 0.1),
    "gen_random(3, 16, seed=2), c=0.05, mu=1": _mu1(16, 2, 0.05),
}


def _run(name):
    inst, c, epsilon, seed, params = INSTANCES[name]()
    return solver.solve(inst, c, epsilon, seed, params_override=params)


def counted(name):
    """One solve with its eigensolves, shifted solves and draws counted.

    An eigensolve of a stack that Instance.grams made is the gate's, or the
    saturation margin's one matrix; every other, made by the search
    (oracle.band_search), is the prune's."""
    eig, solves, draws, made = [], [], [], [None]
    real = {(solver, "eig_extremes_stack"): solver.eig_extremes_stack,
            (oracle, "eig_extremes_stack"): oracle.eig_extremes_stack,
            (solver, "stack_probabilities"): solver.stack_probabilities}
    real_grams, real_draw = Instance.grams, prng.first_uniforms

    def grams_kept(inst, members):
        made[0] = real_grams(inst, members)
        return made[0]

    def eig_counted(stack):
        eig.append((len(stack), stack is made[0]))
        return real[solver, "eig_extremes_stack"](stack)

    def solves_counted(sums, *args):
        solves.append(len(sums))
        return real[solver, "stack_probabilities"](sums, *args)

    def draws_counted(seed, path, last):
        draws.append(len(last))
        return real_draw(seed, path, last)

    for (module, attr), fn in zip(real, (eig_counted, eig_counted, solves_counted)):
        setattr(module, attr, fn)
    Instance.grams, prng.first_uniforms = grams_kept, draws_counted
    try:
        out = _run(name)
    finally:
        for (module, attr), fn in real.items():
            setattr(module, attr, fn)
        Instance.grams, prng.first_uniforms = real_grams, real_draw
    gated = sum(n for n, gram in eig if gram) - 1
    return out, {"gate_matrices": gated, "prune_matrices": sum(n for n, gram in eig if not gram),
                 "eig_calls": len(eig), "shifted_solves": sum(solves),
                 "uniform_draws": sum(draws)}


def wall_times(name, reps):
    """Wall times of reps solves of one instance (a timing child)."""
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _run(name)
        walls.append(time.perf_counter() - t0)
    return walls


def measure(name, args):
    inst, c, epsilon, _, params = INSTANCES[name]()
    margin = solver.saturation_margin(inst, params or solver.derive_params(inst, c, epsilon))
    out, counts = counted(name)
    checkouts = [ROOT] + ([args.against] if args.against else [])
    walls = layers.alternate("solver_layers", name, checkouts, args.reps, args.rounds)
    record = {
        "m": inst.num_vectors, "d": inst.dim, "forced_mu": params is not None,
        "margin": margin, "certified": margin >= 1.0,
        "status": out.status, "levels": out.stats.levels_processed,
        "peak_level": out.stats.peak_level_size, "nodes": out.stats.nodes,
        "pruned": out.stats.pruned, **counts, **layers.summary(walls[0]),
    }
    record["us_per_node"] = record["wall_median_s"] * 1e6 / out.stats.nodes
    if args.against:
        record["against"] = layers.compare(walls[0], walls[1], args.against)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=15, help="timed runs per child")
    ap.add_argument("--rounds", type=int, default=1, help="timing children per checkout")
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="another checkout whose src/ is timed alternately with this one")
    ap.add_argument("--instances", nargs="+", choices=list(INSTANCES), default=list(INSTANCES))
    ap.add_argument("--out", default=str(ROOT / "BENCH_solver.json"))
    args = ap.parse_args(argv)
    if args.reps < 1 or args.rounds < 1:
        ap.error("--reps and --rounds must be at least 1")
    if args.against and not (Path(args.against) / "src" / "ks2").is_dir():
        ap.error(f"--against {args.against}: no src/ks2 there")
    records = {}
    for name in args.instances:
        records[name] = r = measure(name, args)
        label = " (forced mu, outside the paper's theorem)" if r["forced_mu"] else ""
        line = (f"{name}{label}:"
                f" margin {r['margin']:.3g} ({'certified' if r['certified'] else 'sampled'}),"
                f" {r['status']} after {r['levels']} searches (peak {r['peak_level']} gated,"
                f" {r['nodes']} nodes, pruned {r['pruned']}), {r['gate_matrices']} gate +"
                f" {r['prune_matrices']} prune matrices, {r['shifted_solves']} shifted solves,"
                f" {r['uniform_draws']} draws, {r['wall_median_s'] * 1e3:.2f} ms"
                f" (IQR {r['wall_iqr_s'] * 1e3:.2f}, min {r['wall_min_s'] * 1e3:.2f}),"
                f" {r['us_per_node']:.1f} us/node")
        if args.against:
            a = r["against"]
            line += (f"; against {a['wall_median_s'] * 1e3:.2f} ms, ratio"
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

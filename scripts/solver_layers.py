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
import layers  # first: pins BLAS before numpy loads, puts src/ on sys.path
import dataclasses

from ks2 import oracle, prng, solver
from ks2.instance import gen_planted, gen_random


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


def wall_times(name, reps):
    """Wall times of reps solves of one instance (a timing child)."""
    return layers.walls(lambda: _run(name), reps)


def measure(name, args):
    """One solve with its eigensolves, shifted solves and draws counted, and its
    timings.  The solver module eigensolves the gate's stacks and the
    saturation margin's one matrix; the search (oracle.band_search) the prune's."""
    inst, c, epsilon, _, params = INSTANCES[name]()
    margin = solver.saturation_margin(inst, params or solver.derive_params(inst, c, epsilon))
    with layers.counting([(solver, "eig_extremes_stack", len), (oracle, "eig_extremes_stack", len),
                          (solver, "stack_probabilities", lambda sums, *_: len(sums)),
                          (prng, "first_uniforms", lambda seed, path, last: len(last))]) as logs:
        out = _run(name)
    gate, prune, solves, draws = logs
    this, other = layers.timed("solver_layers", name, args)
    record = {
        "m": inst.num_vectors, "d": inst.dim, "forced_mu": params is not None,
        "margin": margin, "certified": margin >= 1.0,
        "status": out.status, "levels": out.stats.levels_processed,
        "peak_level": out.stats.peak_level_size, "nodes": out.stats.nodes,
        "pruned": out.stats.pruned, "gate_matrices": sum(gate) - 1,
        "prune_matrices": sum(prune), "eig_calls": len(gate) + len(prune),
        "shifted_solves": sum(solves), "uniform_draws": sum(draws), **this,
    }
    record["us_per_node"] = record["wall_median_s"] * 1e6 / out.stats.nodes
    if other:
        record["against"] = other
    return record


def describe(name, r):
    label = " (forced mu, outside the paper's theorem)" if r["forced_mu"] else ""
    a = r.get("against")
    return (f"{name}{label}:"
            f" margin {r['margin']:.3g} ({'certified' if r['certified'] else 'sampled'}),"
            f" {r['status']} after {r['levels']} searches (peak {r['peak_level']} gated,"
            f" {r['nodes']} nodes, pruned {r['pruned']}), {r['gate_matrices']} gate +"
            f" {r['prune_matrices']} prune matrices, {r['shifted_solves']} shifted solves,"
            f" {r['uniform_draws']} draws, {r['wall_median_s'] * 1e3:.2f} ms"
            f" (IQR {r['wall_iqr_s'] * 1e3:.2f}, min {r['wall_min_s'] * 1e3:.2f}),"
            f" {r['us_per_node']:.1f} us/node",
            a and f"{a['wall_median_s'] * 1e3:.2f} ms")


if __name__ == "__main__":
    raise SystemExit(layers.main(__doc__, INSTANCES, measure, describe, "BENCH_solver.json"))

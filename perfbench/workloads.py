"""The benchmark's workloads: inputs made from the seed, the timed task list, output checks.

A workload is a ``setup(seed, size)`` function: it builds every input
before timing starts and returns the round, the fixed list of tasks the run
repeats.  A task's ``run`` is the program's work and is the only part timed;
its ``check`` then verifies the output from scratch and returns the list of
problems found together with the record that goes into the output digest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ks2 import instance, linalg, oracle, reduction, solver, sparsifier

GAP = 1.0 / (8.0 * math.sqrt(2.0))  # hardness gap of the NAE reduction


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], dict]]


def sub_seed(seed: int, *path: int) -> int:
    """A 64-bit seed derived from the benchmark seed and a path of small ints."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


# --- solve-planted ------------------------------------------------------------

SOLVE_C, SOLVE_EPSILON = 0.1, 0.3
# (d, k, planted-instance seeds).  The full pool is the first four instances
# of acceptance criterion 08 (d=5, k=8, m=16).  Their solves take 0.2-4.7 s
# apiece depending on the level where the gate first hits, so the pool is
# fixed and the benchmark seed drives the solver's seed and the task order:
# a seed-drawn set of four would move wall_s by about 20 % between seeds.
SOLVE_SIZES = {"full": (5, 8, (0, 1, 2, 3)), "tiny": (3, 4, (0, 1))}


def _check_solve(inst, out):
    problems = []
    if out.status not in ("found", "not-found"):
        problems.append(f"unknown status {out.status!r}")
    if out.found and not instance.check_subset(inst, out.subset, SOLVE_C,
                                               SOLVE_EPSILON).satisfies_eq2:
        problems.append(f"found subset {out.subset} fails check_subset")
    return problems, out.to_dict()


def setup_solve(seed: int, size: str) -> list[Task]:
    d, k, pool = SOLVE_SIZES[size]
    order = np.random.default_rng(sub_seed(seed, 1)).permutation(len(pool))
    tasks = []
    for j in order:
        inst, _ = instance.gen_planted(d, k, seed=pool[j])
        solve_seed = sub_seed(seed, 1, int(j))
        tasks.append(Task(
            f"solve planted seed {pool[j]}",
            lambda inst=inst, s=solve_seed: solver.solve(inst, SOLVE_C, SOLVE_EPSILON,
                                                         seed=s, threads=1),
            lambda out, inst=inst: _check_solve(inst, out)))
    return tasks


# --- oracle-exhaustive --------------------------------------------------------

ORACLE_SIZES = {"full": (5, 20, 2), "tiny": (4, 10, 2)}  # (d, m, instances)


def _check_oracle(inst, res):
    problems = []
    if res.subsets_examined != 1 << inst.num_vectors:
        problems.append(f"examined {res.subsets_examined} of {1 << inst.num_vectors} subsets")
    direct = instance.subset_distance(inst, res.argmin_subset)
    if not abs(res.w_value - direct) <= 1e-12:
        problems.append(f"w = {res.w_value!r} but argmin distance is {direct!r}")
    return problems, res.to_dict()


def setup_oracle(seed: int, size: str) -> list[Task]:
    d, m, count = ORACLE_SIZES[size]
    tasks = []
    for j in range(count):
        inst = instance.gen_random(d, m, seed=sub_seed(seed, 2, j))
        tasks.append(Task(
            f"brute_force_w random d={d} m={m} #{j}",
            lambda inst=inst: oracle.brute_force_w(inst, threads=1),
            lambda res, inst=inst: _check_oracle(inst, res)))
    return tasks


# --- certify-nae --------------------------------------------------------------

FIXTURES = (("F_SAT3", reduction.F_SAT3, True), ("F_UNSAT4", reduction.F_UNSAT4, False))
CERTIFY_SAMPLES = {"full": 2000, "tiny": 50}  # sampled subsets of the unsatisfiable fixture


def _certify(formula, samples):
    """The certification pipeline of scripts/certify_fixtures.py, through the library."""
    rewritten, _ = reduction.nae3sat_to_ks_form(formula)
    inst, layout = reduction.ks_form_to_instance(formula)
    assignment = reduction.nae_brute_solve(formula)
    bb = oracle.branch_bound_w(inst)
    if assignment is not None:
        subsets = [reduction.assignment_to_subset(layout, assignment)]
    else:
        subsets = samples
    witnesses = [reduction.find_violation(layout, inst, s) for s in subsets]
    return rewritten, inst, assignment, bb, subsets, witnesses


def _check_certify(name, formula, satisfiable, out):
    rewritten, inst, assignment, bb, subsets, witnesses = out
    problems = []
    if reduction.validate_ks_form(rewritten):
        problems.append("rewritten formula is not in restricted form")
    rewritten_sat = reduction.nae_brute_solve(rewritten, var_limit=rewritten.num_vars)
    if (rewritten_sat is None) != (assignment is None):
        problems.append("rewriting changed NAE-satisfiability")
    if (assignment is not None) != satisfiable:
        problems.append(f"nae_brute_solve gives {assignment}")
    direct = instance.subset_distance(inst, bb.argmin_subset)
    if not abs(bb.w_value - direct) <= 1e-12:
        problems.append(f"w = {bb.w_value!r} but argmin distance is {direct!r}")
    values = []
    if satisfiable:
        if not bb.w_value <= 1e-12:
            problems.append(f"satisfiable fixture has w = {bb.w_value!r}")
        if assignment is not None and not reduction.nae_eval(formula, assignment):
            problems.append("assignment does not NAE-satisfy the formula")
        if witnesses != [None] or instance.subset_distance(inst, subsets[0]) > 1e-12:
            problems.append("assignment subset does not sum to I/2")
    else:
        if not bb.w_value >= GAP - 1e-9:
            problems.append(f"unsatisfiable fixture has w = {bb.w_value!r} below the gap")
        for s, wit in zip(subsets, witnesses):
            if wit is None:
                problems.append(f"no violation witness for subset {s}")
                continue
            b = inst.gram(s).a
            values.append(abs(float(wit.y @ b @ wit.y) - 0.5))
            if not values[-1] >= GAP - 1e-9:
                problems.append(f"witness value {values[-1]!r} below the gap for {s}")
    record = {
        "fixture": name,
        "rewritten": [rewritten.num_vars, [list(c) for c in rewritten.clauses]],
        "assignment": assignment,
        "w": bb.w_value,
        "argmin": list(bb.argmin_subset),
        "leaves": bb.subsets_examined,
        "witnesses": [None if w is None else [w.kind, w.value] for w in witnesses],
        "witness_values": values,
    }
    return problems, record


def setup_certify(seed: int, size: str) -> list[Task]:
    tasks = []
    for j, (name, formula, satisfiable) in enumerate(FIXTURES):
        samples = []
        if not satisfiable:
            inst, _ = reduction.ks_form_to_instance(formula)
            rng = np.random.default_rng(sub_seed(seed, 3, j))
            picks = rng.random((CERTIFY_SAMPLES[size], inst.num_vectors)) < 0.5
            samples = [tuple(int(i) for i in np.flatnonzero(row)) for row in picks]
        tasks.append(Task(
            f"certify {name}",
            lambda f=formula, s=samples: _certify(f, s),
            lambda out, n=name, f=formula, sat=satisfiable: _check_certify(n, f, sat, out)))
    return tasks


# --- sparsify-stream ----------------------------------------------------------

STREAM_MU, STREAM_DELTA = 0.5, 0.05
STREAM_SIZES = {"full": (10, 4000, 8), "tiny": (4, 200, 2)}  # (d, m, streams)


def _stream(inst, draws, eye):
    state = sparsifier.new_state(inst.dim, STREAM_MU, STREAM_DELTA)
    kept = 0
    for i, (v, u) in enumerate(zip(inst.vectors, draws)):
        state, sampled = sparsifier.observe(state, i, v, u)
        kept += sampled
    return state, kept, linalg.psd_sandwich_check(eye, state.b, STREAM_MU, STREAM_DELTA)


def _check_stream(inst, out):
    state, kept, sandwich = out
    problems = []
    if state.sample_count != kept:
        problems.append(f"ledger holds {state.sample_count} samples, {kept} were kept")
    indices = [i for i, _ in state.ledger]
    if indices != sorted(set(indices)):
        problems.append("ledger indices are not strictly increasing")
    if not all(w >= 1.0 for _, w in state.ledger):
        problems.append("a ledger weight 1/p is below 1")
    drift = float(np.max(np.abs(sparsifier.recompute_sum(state, inst.vectors).a - state.b.a)))
    if not drift <= 1e-9:
        problems.append(f"recompute_sum differs from B by {drift!r}")
    record = {"ledger_hash": state.ledger_hash, "samples": state.sample_count,
              "sandwich": bool(sandwich)}
    return problems, record


def setup_stream(seed: int, size: str) -> list[Task]:
    d, m, count = STREAM_SIZES[size]
    eye = linalg.SymMatrix.identity(d)
    tasks = []
    for j in range(count):
        inst = instance.gen_random(d, m, seed=sub_seed(seed, 4, j))
        draws = np.random.default_rng(sub_seed(seed, 5, j)).random(m).tolist()
        tasks.append(Task(
            f"observe stream d={d} m={m} #{j}",
            lambda inst=inst, u=draws: _stream(inst, u, eye),
            lambda out, inst=inst: _check_stream(inst, out)))
    return tasks


WORKLOADS = {
    "solve-planted": setup_solve,
    "oracle-exhaustive": setup_oracle,
    "certify-nae": setup_certify,
    "sparsify-stream": setup_stream,
}

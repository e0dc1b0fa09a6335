"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none is calibrated elsewhere.
"""
import dataclasses
import math
import time
from fractions import Fraction

import numpy as np

from ks2 import (
    Instance,
    check_subset,
    gen_planted,
    gen_random,
    subset_distance,
    validate,
)
from ks2.linalg import SymMatrix, psd_sandwich_check
from ks2.oracle import brute_force_w
from ks2.prng import Stream, derive_key, TAG_SUBSET
from ks2.reduction import (
    F_SAT3,
    F_UNSAT4,
    assignment_to_subset,
    find_violation,
    ks_form_to_instance,
    nae3sat_to_ks_form,
    nae_brute_solve,
    validate_ks_form,
)
from ks2.solver import derive_params, solve
from ks2.sparsifier import new_state, observe

from conftest import bound_survivors, random_3cnf, random_rotation, stress_instance

INV_8R2 = 1.0 / (8.0 * math.sqrt(2.0))


def report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status} ({detail}; {time.time() - started:.1f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_construction_isotropy():
    t0 = time.time()
    devs, alphas = [], []
    for f in (F_SAT3, F_UNSAT4):
        inst, _ = ks_form_to_instance(f)
        devs.append(inst.isotropy_deviation())
        alphas.append(inst.alpha)
    ok = max(devs) <= 1e-9 and all(a == 0.25 for a in alphas)
    report(1, "construction isotropy and alpha", ok,
           f"max deviation {max(devs):.2e}, alphas {alphas}", t0)


def test_criterion_02_satisfying_assignment_half():
    t0 = time.time()
    inst, layout = ks_form_to_instance(F_SAT3)
    s = assignment_to_subset(layout, (True, False, True))
    dist = subset_distance(inst, s)
    report(2, "satisfying assignment gives exact half", dist <= 1e-12,
           f"distance {dist:.2e}", t0)


def test_criterion_03_violation_bound():
    t0 = time.time()
    inst, layout = ks_form_to_instance(F_UNSAT4)
    m = inst.num_vectors
    worst = np.inf
    for seed in range(1000):
        stream = Stream(derive_key(seed, TAG_SUBSET))
        subset = [i for i in range(m) if stream.uniform() < 0.5]
        witness = find_violation(layout, inst, subset)
        assert witness is not None, f"seed {seed}: no witness on unsatisfiable instance"
        b = inst.gram(subset).a
        value = abs(float(witness.y @ b @ witness.y) - 0.5)
        worst = min(worst, value)
    report(3, "violation bound on unsatisfiable instance", worst >= INV_8R2 - 1e-9,
           f"min witness value {worst:.7f} vs bound {INV_8R2 - 1e-9:.7f}", t0)


def test_criterion_04_off_diagonal_table():
    t0 = time.time()
    inst, layout = ks_form_to_instance(F_UNSAT4)
    lit = 1  # appears in two clauses
    quad = layout.literal_vecs(lit)
    cj, ck = layout.literal_clauses[lit]
    dx = layout.var_dim(abs(lit))
    inv_4r2 = 1.0 / (4.0 * math.sqrt(2.0))
    rows = {
        (0,): (INV_8R2, INV_8R2, 1 / 16), (0, 1): (0.0, 0.0, 1 / 8),
        (0, 2): (inv_4r2, 0.0, 0.0), (0, 3): (0.0, inv_4r2, 0.0),
        (1, 2): (0.0, inv_4r2, 0.0), (1, 3): (inv_4r2, 0.0, 0.0),
        (2, 3): (0.0, 0.0, 1 / 8), (0, 1, 2): (INV_8R2, INV_8R2, 1 / 16),
    }
    worst = 0.0
    for picks, expected in rows.items():
        b = inst.gram([quad[r] for r in picks]).a
        got = (abs(b[dx, cj]), abs(b[dx, ck]), abs(b[cj, ck]))
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    report(4, "off-diagonal table exact", worst <= 1e-12,
           f"max entry error {worst:.2e} over {len(rows)} rows", t0)


def test_criterion_05_rewriting_equivalence():
    t0 = time.time()
    agree = 0
    for seed in range(200):
        f = random_3cnf(seed, max_vars=4, max_clauses=4)
        out, _ = nae3sat_to_ks_form(f)
        assert validate_ks_form(out) == [], f"seed {seed}: output not in restricted form"
        sat_in = nae_brute_solve(f) is not None
        sat_out = nae_brute_solve(out, var_limit=80) is not None
        agree += (sat_in == sat_out)
    report(5, "rewriting preserves NAE-satisfiability", agree == 200,
           f"{agree}/200 agree", t0)


def test_criterion_06_oracle_ground_truth():
    t0 = time.time()
    configs = [(3, 5), (3, 6), (3, 7), (4, 6), (4, 8)]
    worst_w, worst_rot = 0.0, 0.0
    for seed in range(20):
        d, k = configs[seed % len(configs)]
        inst, _ = gen_planted(d, k, seed=seed)
        res = brute_force_w(inst)
        worst_w = max(worst_w, res.w_value)
        q = random_rotation(d, seed=seed + 100)
        rotated = validate(Instance(inst.vectors @ q.T))
        res_rot = brute_force_w(rotated)
        worst_rot = max(worst_rot, abs(res.w_value - res_rot.w_value))
    ok = worst_w <= 1e-12 and worst_rot <= 1e-8
    report(6, "oracle ground truth on planted instances", ok,
           f"max w {worst_w:.2e}, max rotation drift {worst_rot:.2e}", t0)


def _eq2_feasible_exhaustive(inst, c, epsilon):
    """Independent enumerator: does any subset sit inside the relaxed band?"""
    ca = c * math.sqrt(inst.alpha)
    lo, hi = (1 - epsilon) * (0.5 - ca), (1 + epsilon) * (0.5 + ca)
    m = inst.num_vectors
    for mask in range(1 << m):
        idx = [i for i in range(m) if (mask >> i) & 1]
        rows = inst.vectors[idx]
        w = np.linalg.eigvalsh(rows.T @ rows) if idx else np.zeros(inst.dim)
        if lo <= w[0] and w[-1] <= hi:
            return True
    return False


def test_criterion_07_solver_soundness():
    t0 = time.time()
    c, epsilon = 0.1, 0.2
    false_positives = 0
    spurious = 0
    runs = 0
    for seed in range(40):  # planted: found subsets must re-verify
        inst, _ = gen_planted(3 + seed % 2, 4 + seed % 3, seed=seed)
        out = solve(inst, c, 0.3, seed=seed)
        runs += 1
        if out.found and not check_subset(inst, out.subset, c, 0.3).satisfies_eq2:
            false_positives += 1
    for seed in range(30):  # random isotropic with exhaustive confirmation
        inst = gen_random(3, 9, seed=seed)
        out = solve(inst, c, epsilon, seed=seed)
        runs += 1
        if out.found:
            if not check_subset(inst, out.subset, c, epsilon).satisfies_eq2:
                false_positives += 1
        elif _eq2_feasible_exhaustive(inst, c, epsilon):
            pass  # a miss is allowed; only the reverse direction is forbidden
        if out.found and not _eq2_feasible_exhaustive(inst, c, epsilon):
            spurious += 1
    for seed in range(30):  # instances with no valid subset at all
        inst = stress_instance(2)
        assert not _eq2_feasible_exhaustive(inst, c, epsilon)
        out = solve(inst, c, epsilon, seed=seed)
        runs += 1
        if out.found:
            spurious += 1
    ok = false_positives == 0 and spurious == 0 and runs == 100
    report(7, "solver soundness over mixed runs", ok,
           f"{runs} runs, {false_positives} false positives, {spurious} spurious finds", t0)


def test_criterion_08_solver_completeness():
    t0 = time.time()
    found = 0
    for seed in range(50):
        inst, _ = gen_planted(5, 8, seed=seed)
        out = solve(inst, 0.1, 0.3, seed=seed)
        if out.found:
            assert check_subset(inst, out.subset, 0.1, 0.3).satisfies_eq2
            found += 1
    threshold = math.ceil((1 - 2 / 5 - 0.15) * 50)
    report(8, "solver completeness on planted instances", found >= threshold,
           f"found {found}/50, needed >= {threshold}", t0)


def test_criterion_09_sparsifier_sandwich():
    t0 = time.time()
    mu, delta, d, m = 0.25, 0.05, 10, 500
    cap = math.ceil(40 * d * math.log(d) * math.log(mu / delta) / mu**2)
    eye = SymMatrix.identity(d)
    sandwich_ok = 0
    count_ok = 0
    for seed in range(100):
        inst = gen_random(d, m, seed=seed)
        state = new_state(d, mu, delta)
        u = Stream(derive_key(seed, 77))
        for i in range(m):
            state, _ = observe(state, i, inst.vectors[i], u.uniform())
        sandwich_ok += psd_sandwich_check(eye, state.b, mu, delta)
        count_ok += (state.sample_count <= cap)
    ok = sandwich_ok >= 90 and count_ok >= 90
    report(9, "sparsifier sandwich statistics", ok,
           f"sandwich {sandwich_ok}/100, count<= {cap} in {count_ok}/100", t0)


def test_criterion_10_power_set_harness(forced_sampling):
    t0 = time.time()
    def axes_instance(counts):
        d = len(counts) + 1
        rows = []
        for ax, k in enumerate(counts):
            scale = 1.0 / math.sqrt(k)
            rows.extend([np.eye(d)[ax] * scale] * k)
        rows.append(np.eye(d)[len(counts)])
        return validate(Instance(np.array(rows)))

    # Every A_S is diagonal here, so the subsets the completion bound leaves
    # are computed exactly; band (1 -+ 0.1)(1/2 -+ 0.1) as alpha = 1.
    band = Fraction(9, 10) * Fraction(4, 10), Fraction(11, 10) * Fraction(6, 10)
    ok = True
    details = []
    for counts in [(4, 4), (5, 6)]:  # m = 9 and m = 12
        inst = axes_instance(counts)
        m = inst.num_vectors
        params = dataclasses.replace(derive_params(inst, 0.1, 0.1), n=m + 1)
        out = solve(inst, 0.1, 0.1, seed=0, params_override=params, collect_subsets=True)
        got = {frozenset(s) for s in out.final_subsets}
        want = bound_survivors(inst, *band)
        ok = ok and inst.alpha == 1.0 and not out.found and out.stats.pruned > 0 and got == want
        details.append(f"m={m}: {len(got)}/{len(want)} of {2**m}, pruned {out.stats.pruned}")
    report(10, "forced-sampling completion-bound harness", ok, ", ".join(details), t0)

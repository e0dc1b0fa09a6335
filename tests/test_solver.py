import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ks2 import Instance, check_subset, gen_planted, gen_random, prng, sparsifier, validate
from ks2 import solver as solver_module
from ks2.errors import (BadParams, DegenerateDimension, InfeasibleParameters, NotIsotropic,
                        TooLarge)
from ks2.instance import SubsetReport
from ks2.linalg import eig_extremes_stack, rounding_eta
from ks2.solver import SolveStats, derive_params, saturation_margin, solve

from conftest import bound_survivors, gram_families, stress_instance
from reference_solver import reference_solve


class TestDeriveParams:
    def test_reduction_scale_constants(self, funsat4_built):
        # alpha = 1/4 and c = 1/(4*sqrt(2)) put the band edge at 1/(8*sqrt(2)),
        # which is also the smaller of the two gap widths.
        inst, _ = funsat4_built
        c = 1.0 / (4.0 * math.sqrt(2.0))
        p = derive_params(inst, c, 0.3)
        assert p.lam == pytest.approx(1.0 / (8.0 * math.sqrt(2.0)), rel=1e-15)
        assert p.mu == 0.3 / 6.0
        # Frozen from the formula ceil(40 * 7 * ln 7 * ln(1/lam) / mu^2).
        assert p.n == 528731
        assert p.delta == p.mu * p.lam

    def test_mu_is_epsilon_sixth(self, axis_pairs_d2):
        p = derive_params(axis_pairs_d2, 0.1, 0.3)
        assert p.mu == 0.3 / 6.0

    def test_infeasible_band(self, axis_pairs_d2):
        # alpha = 1/2 here, so c = 1 gives c*sqrt(alpha) > 1/2.
        with pytest.raises(InfeasibleParameters):
            derive_params(axis_pairs_d2, 1.0, 0.3)
        with pytest.raises(InfeasibleParameters):
            derive_params(axis_pairs_d2, 0.1, 0.0)

    def test_ridge_matches_lambda(self, axis_pairs_d2):
        # The sparsifier states the solver spawns must invert B + lam*I.
        from ks2.sparsifier import new_state
        p = derive_params(axis_pairs_d2, 0.1, 0.3)
        st = new_state(axis_pairs_d2.dim, p.mu, p.delta)
        assert st.shift == pytest.approx(p.lam, rel=1e-15)


class TestSolve:
    def test_axis_pairs_found(self, axis_pairs_d3):
        out = solve(axis_pairs_d3, 0.1, 0.1, seed=7)
        assert out.found
        assert check_subset(axis_pairs_d3, out.subset, 0.1, 0.1).satisfies_eq2
        ca = 0.1 * math.sqrt(axis_pairs_d3.alpha)
        assert (1 - 0.1) * (0.5 - ca) <= out.report.lambda_min
        assert out.report.lambda_max <= (1 + 0.1) * (0.5 + ca)

    def test_unvalidated_instance_is_gated(self, axis_pairs_d3):
        # solve() runs the isotropy gate itself on an instance not yet validated.
        raw = Instance(axis_pairs_d3.vectors)
        assert not raw.validated
        out = solve(raw, 0.1, 0.1, seed=7)
        assert out.to_dict() == solve(axis_pairs_d3, 0.1, 0.1, seed=7).to_dict()
        with pytest.raises(NotIsotropic):
            solve(Instance(0.5 * axis_pairs_d3.vectors), 0.1, 0.1, seed=7)

    def test_stress_instance_never_found(self, stress_notfound):
        for seed in range(5):
            out = solve(stress_notfound, 0.1, 0.1, seed=seed)
            assert not out.found

    def test_planted_found_and_sound(self):
        inst, planted = gen_planted(4, 6, seed=3)
        out = solve(inst, 0.1, 0.3, seed=3)
        assert out.found
        rep = check_subset(inst, out.subset, 0.1, 0.3)
        assert rep.satisfies_eq2

    def test_deterministic_including_stats(self, stress_notfound):
        a = solve(stress_notfound, 0.1, 0.1, seed=11)
        b = solve(stress_notfound, 0.1, 0.1, seed=11)
        assert a.status == b.status
        assert a.stats.to_dict() == b.stats.to_dict()

    def test_threads_match_sequential(self, stress_notfound):
        seq = solve(stress_notfound, 0.1, 0.1, seed=5)
        par = solve(stress_notfound, 0.1, 0.1, seed=5, threads=4)
        assert seq.status == par.status
        assert seq.stats.to_dict() == par.stats.to_dict()

        inst, _ = gen_planted(3, 5, seed=8)
        seq = solve(inst, 0.1, 0.3, seed=8)
        par = solve(inst, 0.1, 0.3, seed=8, threads=4)
        assert seq.found and par.found
        assert seq.subset == par.subset

    def test_node_limit_raises(self, stress_notfound):
        # Every search of this instance pops one node, its root: nine in all.
        assert solve(stress_notfound, 0.1, 0.1, seed=1).stats.nodes == 9
        with pytest.raises(TooLarge, match="node limit 4"):
            solve(stress_notfound, 0.1, 0.1, seed=1, node_limit=4)

    def test_node_limit_counts_popped_nodes(self):
        # The limit counts the popped nodes that stats.nodes reports, on the
        # certified path (planted) and on the sampled one (mu = 1) alike.
        for case in ("planted-d5-k8", "forced-unsaturated-mu1"):
            build, c, epsilon, seed = REFERENCE_CASES[case]
            inst, kwargs = build()
            out = solve(inst, c, epsilon, seed, **kwargs)
            capped = solve(inst, c, epsilon, seed, node_limit=out.stats.nodes, **kwargs)
            assert capped.to_dict() == out.to_dict()
            with pytest.raises(TooLarge):
                solve(inst, c, epsilon, seed, node_limit=out.stats.nodes - 1, **kwargs)

    def test_size_filter_accounting(self):
        # n = 0 drops every node that sampled anything; the run samples, as
        # n < m voids the certificate, and stays the reference's.
        inst = gen_random(4, 14, seed=1)
        params = dataclasses.replace(derive_params(inst, 0.02, 0.3), n=0)
        out = solve(inst, 0.02, 0.3, seed=2, params_override=params)
        assert out.stats.size_filtered > 0
        want = reference_solve(inst, 0.02, 0.3, 2, params_override=params)
        assert (out.status, out.subset) == (want.status, want.subset)
        assert want.stats.size_filtered > 0

    def test_power_set_equivalence_small(self, forced_sampling):
        # Forced sampling with an inactive size filter keeps every subset
        # that the completion bound cannot rule out (none satisfies the band
        # here); without the prune the final level is the whole power set.
        inst = stress_instance(1)  # m = 5
        m = inst.num_vectors
        params = dataclasses.replace(derive_params(inst, 0.1, 0.1), n=m + 1)
        out = solve(inst, 0.1, 0.1, seed=0, params_override=params, collect_subsets=True)
        assert not out.found and out.stats.pruned > 0
        got = {frozenset(s) for s in out.final_subsets}
        assert inst.alpha == 1.0  # band (1 -+ 0.1)(1/2 -+ 0.1)
        band = Fraction(9, 10) * Fraction(4, 10), Fraction(11, 10) * Fraction(6, 10)
        assert got == bound_survivors(inst, *band)
        assert len(got) == 8
        full = reference_solve(inst, 0.1, 0.1, seed=0, params_override=params,
                               force_sample=True, collect_subsets=True, prune=False)
        assert {frozenset(s) for s in full.final_subsets} == {
            frozenset(c) for r in range(m + 1) for c in itertools.combinations(range(m), r)}

    def test_found_statistics_shape(self):
        inst, _ = gen_planted(3, 4, seed=1)
        out = solve(inst, 0.1, 0.3, seed=1)
        d = out.to_dict()
        assert d["status"] == "found"
        assert isinstance(d["stats"]["levels_processed"], int)
        assert d["lambda_min"] is not None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gram_families())
def test_prune_slack_is_sound(vectors):
    # For every search i, depth k <= i and node S of the first k vectors,
    # lambda_max(P + v_i v_i^T) and lambda_min(P + v_k v_k^T + ... + v_i v_i^T),
    # computed as the solver computes them (P summed in index order, the
    # tail by cumsum), bound the gate's computed extremes of every set
    # S' + {i}, S <= S' <= S + {k, ..., i-1}, up to the slack.  Bit j of a
    # subset's number is index j, so column S and row T of the reshaped gate
    # table hold the subset S + (T shifted by k).
    inst = Instance(vectors)
    m, d = vectors.shape
    slack = 2 * rounding_eta(inst.vectors)
    outers = vectors[:, :, None] * vectors[:, None, :]
    sums = np.zeros((2**m, d, d))
    for t in range(m):  # the sums of the subsets with top index t
        sums[2**t:2 ** (t + 1)] = sums[:2**t] + outers[t]
    rows = (np.arange(2**m)[:, None] >> np.arange(m) & 1).astype(bool)
    for i in range(m):
        gate = rows[:2**i].copy()
        gate[:, i] = True
        lo, hi = eig_extremes_stack(inst.grams(gate))
        tails = np.cumsum(outers[i::-1], axis=0)[::-1]
        for k in range(i + 1):
            top = eig_extremes_stack(sums[:2**k] + outers[i])[1]
            floor = eig_extremes_stack(sums[:2**k] + tails[k])[0]
            assert np.all(top - slack <= hi.reshape(2 ** (i - k), 2**k).min(axis=0))
            assert np.all(floor + slack >= lo.reshape(2 ** (i - k), 2**k).max(axis=0))


def _with(inst, c, epsilon, **changes):
    return dataclasses.replace(derive_params(inst, c, epsilon), **changes)


def _power_set_case(pairs):
    inst = stress_instance(pairs)
    return inst, dict(params_override=_with(inst, 0.1, 0.1, n=inst.num_vectors + 1))


def _d1_case():
    # v_0^2 = 0.09 sits below the band, so level 0 misses the gate and the
    # sparsifier is asked for a probability at d = 1.
    inst = validate(Instance(np.array([[0.3], [np.sqrt(0.91)]])))
    return inst, {}


REFERENCE_CASES = {
    "planted-d5-k8": (lambda: (gen_planted(5, 8, seed=0)[0], {}), 0.1, 0.3, 0),
    "stress-1": (lambda: (stress_instance(1), {}), 0.1, 0.1, 4),
    "stress-2": (lambda: (stress_instance(2), {}), 0.1, 0.1, 5),
    "power-set-1": (lambda: _power_set_case(1), 0.1, 0.1, 0),
    "power-set-2": (lambda: _power_set_case(2), 0.1, 0.1, 0),
    "n-override-0": (lambda: (stress_instance(2), dict(
        params_override=_with(stress_instance(2), 0.1, 0.1, n=0))), 0.1, 0.1, 2),
    # Capped at four popped nodes; stress-2 is the same run uncapped.
    "level-cap-4": (lambda: (stress_instance(2), dict(node_limit=4)), 0.1, 0.1, 1),
    "d1-degenerate": (_d1_case, 0.1, 0.3, 0),
    # mu = 1 leaves about a third of the sampling probabilities below 1.
    # Capped: the reference's levels grow to millions of entries.
    "unsaturated-mu1": (lambda: (gen_random(3, 40, seed=3), dict(
        params_override=_with(gen_random(3, 40, seed=3), 0.1, 0.3, mu=1.0),
        node_limit=1000)), 0.1, 0.3, 3),
    "forced-unsaturated-mu1": (lambda: (gen_random(3, 14, seed=3), dict(
        params_override=_with(gen_random(3, 14, seed=3), 0.1, 0.3, mu=1.0))), 0.1, 0.3, 3),
}
# Cases run with the forced_sampling stub, against the reference's own force_sample.
FORCED = {"power-set-1", "power-set-2", "forced-unsaturated-mu1"}


def _record(fn, inst, c, epsilon, seed, kwargs):
    """What the solver and the reference share: the outcome, final_subsets,
    levels_processed and dedup_hits; the other stats count search nodes in
    one and level entries in the other."""
    try:
        out = fn(inst, c, epsilon, seed, collect_subsets=True, **kwargs)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("returned", out.status, out.subset, out.report, out.final_subsets,
            out.stats.levels_processed, out.stats.dedup_hits)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_matches_per_entry_reference(case, request):
    build, c, epsilon, seed = REFERENCE_CASES[case]
    inst, kwargs = build()
    if case in FORCED:
        request.getfixturevalue("forced_sampling")
    got = _record(solve, inst, c, epsilon, seed, kwargs)
    assert got == _record(reference_solve, inst, c, epsilon, seed,
                          dict(kwargs, force_sample=case in FORCED))
    if case == "d1-degenerate":
        assert got[1] is DegenerateDimension
    if "node_limit" in kwargs:
        assert got[1] is TooLarge
        uncapped = {k: v for k, v in kwargs.items() if k != "node_limit"}
        out = solve(inst, c, epsilon, seed, **uncapped)
        assert (out.status == "found") == (case == "unsaturated-mu1")
        if out.found:
            assert check_subset(inst, out.subset, c, epsilon).satisfies_eq2


@pytest.mark.parametrize("collect_subsets", [False, True])
def test_d1_raises_before_any_search(collect_subsets, monkeypatch):
    # At d = 1 the sampling budget vanishes; solve raises before it
    # eigensolves anything, whether or not a node would be expanded.
    inst, _ = _d1_case()
    monkeypatch.setattr(solver_module, "eig_extremes_stack", None)
    with pytest.raises(DegenerateDimension):
        solve(inst, 0.1, 0.3, 0, collect_subsets=collect_subsets)


def _sweep_case(d, c, seed):
    """A seeded gen_random instance with d + 1 <= m <= 12, and its kwargs by
    seed mod 3: derived parameters, mu = 1, or mu = 1 with n = 2."""
    m = d + 1 + seed % (12 - d)
    inst = gen_random(d, m, seed=seed)
    kwargs = [{}, dict(params_override=_with(inst, c, 0.3, mu=1.0)),
              dict(params_override=_with(inst, c, 0.3, mu=1.0, n=2))][seed % 3]
    return inst, kwargs


@pytest.mark.parametrize("forced", [False, True], ids=["drawn", "forced"])
@pytest.mark.parametrize("c", [0.02, 0.05, 0.1, 0.2])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sweep_matches_reference(d, c, forced, request):
    # Certified and sampled runs, found and not found, on many shapes; with
    # forced, every draw reads 0 (the forced_sampling fixture).
    if forced:
        request.getfixturevalue("forced_sampling")
    for seed in range(12):
        inst, kwargs = _sweep_case(d, c, seed)
        got = _record(solve, inst, c, 0.3, seed, kwargs)
        assert got == _record(reference_solve, inst, c, 0.3, seed,
                              dict(kwargs, force_sample=forced)), (d, c, seed)


@pytest.mark.parametrize("d, k, seed, subset", [
    (5, 12, 0, (5, 9, 12, 13, 15, 16, 17, 19, 20, 21, 22)),
    (5, 12, 1, (1, 2, 3, 4, 5, 7, 11, 13, 15, 16, 17)),
    (8, 16, 1, (0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 18, 19, 21, 23, 25, 26, 27)),
])
def test_larger_planted_subsets_are_pinned(d, k, seed, subset):
    # m = 24 and 32, pinned because the per-entry reference cannot reach
    # them: its levels grow to 210,388 entries on the first and 352,768 on
    # the last.
    inst, _ = gen_planted(d, k, seed=seed)
    assert solve(inst, 0.1, 0.3, seed=1).subset == subset


UNPRUNED_CASES = {
    **{f"planted-d{d}-k{k}-{s}": (lambda d=d, k=k, s=s: (gen_planted(d, k, seed=s)[0], {}),
                                  0.1, 0.3, s)
       for d, k in ((3, 4), (5, 8)) for s in (0, 1)},
    **{f"random-4-14-c{c}": (lambda: (gen_random(4, 14, seed=1), {}), c, 0.3, 1)
       for c in (0.02, 0.05, 0.1, 0.2)},
    # The unpruned per-entry reference holds 2^15 entries here; at m = 18 its
    # 2^17 per-entry states would take about half a gigabyte.
    "random-6-16-not-found": (lambda: (gen_random(6, 16, seed=0), {}), 0.02, 0.3, 0),
    "unsaturated-mu1": REFERENCE_CASES["unsaturated-mu1"],
    "forced-unsaturated-mu1": REFERENCE_CASES["forced-unsaturated-mu1"],
}


def _outcome(fn, inst, c, epsilon, seed, kwargs):
    try:
        out = fn(inst, c, epsilon, seed, **kwargs)
    except TooLarge:
        return ("raised",), None
    return (out.status, out.subset, out.report), out.stats


@pytest.mark.parametrize("case", sorted(UNPRUNED_CASES))
def test_prune_keeps_unpruned_outcome(case, request):
    # Pruning drops only nodes that can never gate: status, subset and
    # report are those of the unpruned search, and no search gates more
    # nodes than the unpruned search holds in a level.
    build, c, epsilon, seed = UNPRUNED_CASES[case]
    inst, kwargs = build()
    if case in FORCED:
        request.getfixturevalue("forced_sampling")
    got, stats = _outcome(solve, inst, c, epsilon, seed, kwargs)
    want, full = _outcome(reference_solve, inst, c, epsilon, seed,
                          dict(kwargs, force_sample=case in FORCED, prune=False))
    assert got == want
    if stats is not None:
        assert stats.peak_level_size <= full.peak_level_size and full.pruned == 0
    if case == "random-6-16-not-found":
        assert got[0] == "not-found" and stats.pruned > 0


# --- certified saturation ----------------------------------------------------

# saturation_margin of each REFERENCE_CASES entry, as (low, high); a margin of
# at least 1 certifies the run.  The mu = 1 cases stay below 1, d = 1 has no
# sampling budget and n-override-0 has n < m, so those read 0.
MARGINS = {"planted-d5-k8": (600, 630), "stress-1": (14600, 14650),
           "power-set-1": (14600, 14650), "stress-2": (7300, 7320),
           "power-set-2": (7300, 7320), "level-cap-4": (7300, 7320),
           "unsaturated-mu1": (0.09, 0.11), "forced-unsaturated-mu1": (0.7, 0.8),
           "n-override-0": (0, 0), "d1-degenerate": (0, 0)}


@pytest.fixture
def sampling_calls(monkeypatch):
    """The names of the sampled path's calls, in order: the batched shifted
    solves (stack_probabilities) and the uniform draws (first_uniforms)."""
    calls = []
    for owner, name in ((solver_module, "stack_probabilities"), (prng, "first_uniforms")):
        monkeypatch.setattr(owner, name, lambda *args, real=getattr(owner, name), name=name:
                            calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_reference_case_takes_its_path(case, sampling_calls):
    # A margin of at least 1 never samples; an uncertified run samples
    # exactly when it expands a node, that is, when some search pops more
    # than its root.  Every search of stress-2 prunes its root, and d = 1
    # raises before any search.
    build, c, epsilon, seed = REFERENCE_CASES[case]
    inst, kwargs = build()
    kwargs.pop("node_limit", None)
    low, high = MARGINS[case]
    margin = saturation_margin(inst, kwargs.get("params_override")
                               or derive_params(inst, c, epsilon))
    assert low <= margin <= high
    try:
        stats = solve(inst, c, epsilon, seed, **kwargs).stats
        expanded = stats.nodes > stats.levels_processed
    except DegenerateDimension:
        expanded = False
    assert bool(sampling_calls) == (margin < 1.0 and expanded)


def test_certificate_saturates_every_reference_draw(monkeypatch):
    # The per-entry reference observes every draw through sample_probability:
    # on the certified criterion-08 pool each reads exactly 1.0, and the
    # certified solve gives the reference's outcome.
    seen = []
    real = sparsifier.sample_probability

    def recording(state, v):
        seen.append(real(state, v))
        return seen[-1]

    monkeypatch.setattr(sparsifier, "sample_probability", recording)
    for seed in range(50):
        inst, _ = gen_planted(5, 8, seed=seed)
        assert saturation_margin(inst, derive_params(inst, 0.1, 0.3)) >= 1.0
        want = reference_solve(inst, 0.1, 0.3, seed)
        got = solve(inst, 0.1, 0.3, seed)
        assert (got.status, got.subset, got.report) == (want.status, want.subset, want.report)
    assert seen and set(seen) == {1.0}


def test_certified_solve_never_samples(monkeypatch):
    def refuse(*args):
        raise AssertionError("a certified solve sampled")

    monkeypatch.setattr(solver_module, "stack_probabilities", refuse)
    monkeypatch.setattr(solver_module, "fold_ledger_hashes", refuse)
    monkeypatch.setattr(prng, "first_uniforms", refuse)
    for seed in range(50):  # the criterion-08 pool
        inst, _ = gen_planted(5, 8, seed=seed)
        solve(inst, 0.1, 0.3, seed=seed)
    build, c, epsilon, seed = UNPRUNED_CASES["random-6-16-not-found"]
    assert solve(build()[0], c, epsilon, seed).status == "not-found"


def test_margin_just_below_one_samples(sampling_calls):
    # Bisect mu to the certificate's edge on the m = 14 mu = 1 instance (the
    # margin falls as mu grows): just below 1 the run takes the sampled path,
    # just above it the certified one, and both match the reference.
    build, c, epsilon, seed = REFERENCE_CASES["forced-unsaturated-mu1"]
    inst, _ = build()
    base = derive_params(inst, c, epsilon)
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if saturation_margin(inst, dataclasses.replace(base, mu=mid)) >= 1.0:
            lo = mid
        else:
            hi = mid
    below, above = dataclasses.replace(base, mu=hi), dataclasses.replace(base, mu=lo)
    assert 1.0 - 1e-12 < saturation_margin(inst, below) < 1.0 <= saturation_margin(inst, above)
    for params, sampled in ((below, True), (above, False)):
        del sampling_calls[:]
        kwargs = dict(params_override=params)
        got = _record(solve, inst, c, epsilon, seed, kwargs)
        assert ("stack_probabilities" in sampling_calls) == sampled
        assert got == _record(reference_solve, inst, c, epsilon, seed, kwargs)


def test_certified_not_found_is_exact():
    # Under the certificate every nonempty subset is gated or ruled out by
    # the completion bound, so a not-found run means that no subset of the
    # m = 16 instance lies in the relaxed band: all 65,536 Grams, eigensolved
    # as the gate eigensolves them, miss it, and check_subset agrees on the
    # twenty subsets closest to it.
    build, c, epsilon, seed = UNPRUNED_CASES["random-6-16-not-found"]
    inst, _ = build()
    assert saturation_margin(inst, derive_params(inst, c, epsilon)) >= 1.0
    assert solve(inst, c, epsilon, seed).status == "not-found"
    m = inst.num_vectors
    rows = (np.arange(2**m)[:, None] >> np.arange(m) & 1).astype(bool)
    lo, hi = np.concatenate([eig_extremes_stack(inst.grams(chunk))
                             for chunk in np.array_split(rows, 16)], axis=1)
    ca = c * math.sqrt(inst.alpha)
    miss = np.maximum((1 - epsilon) * (0.5 - ca) - lo, hi - (1 + epsilon) * (0.5 + ca))
    assert np.all(miss > 0)
    for k in np.argsort(miss)[:20]:
        assert not check_subset(inst, np.flatnonzero(rows[k]), c, epsilon).satisfies_eq2


def test_invalid_mu_raises_before_the_certificate():
    # mu = 2 would certify stress-2, but the sparsifier rejects it on
    # either path, as the reference does.
    inst = stress_instance(2)
    params = _with(inst, 0.1, 0.1, mu=2.0)
    assert saturation_margin(inst, params) >= 1.0
    for fn in (solve, reference_solve):
        with pytest.raises(BadParams):
            fn(inst, 0.1, 0.1, 0, params_override=params)


# --- exact outcomes, pinned ----------------------------------------------------

# name -> (instance, c, epsilon, seed, kind of run, want), every run with
# collect_subsets; want is (status, subset, (lambda_min, lambda_max,
# satisfies_eq1) of the report, the SolveStats fields in order,
# final_subsets), or the TooLarge message.  The values were computed by the
# solver's own search loop before it became band_search.  Runs of kind ""
# take the derived parameters (certified), "mu1" force mu = 1 and draw,
# "mu1n3" also set n = 3 so that the size filter fires, and the "limit"
# kinds stop at a node limit.  The band-edge runs take the epsilon that puts
# the band's low end exactly on a computed lambda_min(P + R_k) of a kept
# node, where an include child's value, summed in another order, can fall on
# either side of it: only the intervals' 3 eta slack sends it to an
# eigensolve, as computing every value would.
PINNED = {
    "planted-5-8-0": (lambda: gen_planted(5, 8, seed=0)[0], 0.1, 0.3, 0, "",
        ("found", (1, 3, 5, 7, 9, 11, 12), (0.3093990157680674, 0.5000000000000009, False),
         (13, 128, 0, 117, 0, 543), None)),
    "planted-5-8-1": (lambda: gen_planted(5, 8, seed=1)[0], 0.1, 0.3, 1, "",
        ("found", (3, 5, 7, 9, 11, 13, 14), (0.4066081290294494, 0.4999999999999998, False),
         (15, 128, 0, 255, 0, 1045), None)),
    "planted-5-8-2": (lambda: gen_planted(5, 8, seed=2)[0], 0.1, 0.3, 2, "",
        ("found", (3, 5, 6, 7, 9, 11, 13, 14), (0.36343617594590116, 0.6914056715964546, False),
         (15, 128, 0, 284, 0, 1099), None)),
    "planted-5-8-3": (lambda: gen_planted(5, 8, seed=3)[0], 0.1, 0.3, 3, "",
        ("found", (1, 3, 5, 7, 9, 12, 13, 14), (0.3219508838048785, 0.6078498355932993, False),
         (15, 128, 0, 212, 0, 901), None)),
    "planted-8-16-1": (lambda: gen_planted(8, 16, seed=1)[0], 0.1, 0.3, 1, "",
        ("found", (0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 18, 19, 21, 23, 25, 26, 27),
         (0.33480153625688525, 0.7228517374347013, False), (28, 116, 0, 13769, 0, 28192), None)),
    "random-4-14-not-found": (lambda: gen_random(4, 14, seed=0), 0.02, 0.3, 0, "",
        ("not-found", None, None, (14, 20, 0, 1125, 0, 2297), [(1, 4, 8, 9, 11),
         (1, 4, 8, 9, 11, 13)])),
    "random-5-12-not-found": (lambda: gen_random(5, 12, seed=1), 0.2, 0.3, 1, "",
        ("not-found", None, None, (12, 30, 0, 404, 0, 861), [(1, 3, 4, 5, 10),
         (1, 3, 4, 5, 10, 11)])),
    "drawn-3-16-mu1": (lambda: gen_random(3, 16, seed=2), 0.05, 0.3, 2, "mu1",
        ("found", (2, 3, 4, 6, 7, 8, 10, 12), (0.3530614871225175, 0.6612329707728872, False),
         (13, 33, 0, 323, 0, 744), None)),
    "drawn-3-14-mu1": (lambda: gen_random(3, 14, seed=3), 0.1, 0.3, 3, "mu1",
        ("found", (2, 7, 8, 9, 11), (0.33413200806054244, 0.5386042132770731, False),
         (12, 128, 0, 132, 0, 670), None)),
    "drawn-3-40-mu1": (lambda: gen_random(3, 40, seed=3), 0.1, 0.3, 3, "mu1",
        ("found", (3, 4, 5, 6, 8, 9, 10, 11, 12, 15, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27,
                   28, 29),
         (0.3135702087596187, 0.7096662761255905, False), (30, 126, 0, 755, 0, 2890), None)),
    "filtered-2-12-found": (lambda: gen_random(2, 12, seed=1), 0.1, 0.3, 1, "mu1n3",
        ("found", (3, 5, 7, 9), (0.3203485786060463, 0.5112134712179833, False),
         (10, 11, 80, 99, 0, 382), None)),
    "filtered-3-8-not-found": (lambda: gen_random(3, 8, seed=0), 0.1, 0.3, 0, "mu1n3",
        ("not-found", None, None, (8, 8, 20, 58, 0, 179), [(3, 4, 6), (3, 4, 6, 7)])),
    "filtered-3-14-not-found": (lambda: gen_random(3, 14, seed=0), 0.1, 0.3, 0, "mu1n3",
        ("not-found", None, None, (14, 8, 602, 425, 0, 2063), [(4, 7, 12), (4, 7, 12, 13)])),
    "filtered-4-14-not-found": (lambda: gen_random(4, 14, seed=1), 0.1, 0.3, 1, "mu1n3",
        ("not-found", None, None, (14, 7, 425, 361, 0, 1577), [(9, 11, 12), (9, 11, 12, 13)])),
    "node-limit-drawn": (lambda: gen_random(3, 40, seed=3), 0.1, 0.3, 3, "mu1-limit",
        "solve exceeded node limit 1000"),
    "node-limit-certified": (lambda: gen_planted(5, 8, seed=0)[0], 0.1, 0.3, 0, "limit",
        "solve exceeded node limit 40"),
    "band-edge-3-8-0": (lambda: gen_random(3, 8, seed=0), 0.1, 0.24008947704242267, 0, "",
        ("not-found", None, None, (8, 10, 0, 70, 0, 161), [])),
    "band-edge-3-8-1": (lambda: gen_random(3, 8, seed=1), 0.1, 0.5138532910313535, 1, "",
        ("not-found", None, None, (8, 4, 0, 84, 0, 169), [])),
    "band-edge-3-8-4": (lambda: gen_random(3, 8, seed=4), 0.1, 0.6079803893056661, 4, "",
        ("found", (0, 3, 4), (0.21587758722943695, 0.8984055637759137, False),
         (5, 8, 0, 8, 0, 29), None)),
}


def _pinned_kwargs(inst, c, kind):
    mu1 = _with(inst, c, 0.3, mu=1.0)
    return {"": {}, "mu1": dict(params_override=mu1),
            "mu1n3": dict(params_override=dataclasses.replace(mu1, n=3)),
            "mu1-limit": dict(params_override=mu1, node_limit=1000),
            "limit": dict(node_limit=40)}[kind]


@pytest.mark.parametrize("case", sorted(PINNED))
def test_solve_matches_pinned_outcome(case):
    build, c, epsilon, seed, kind, want = PINNED[case]
    inst = build()
    kwargs = dict(_pinned_kwargs(inst, c, kind), collect_subsets=True)
    if isinstance(want, str):
        with pytest.raises(TooLarge, match=f"^{want}$"):
            solve(inst, c, epsilon, seed, **kwargs)
        return
    status, subset, report, stats, final = want
    out = solve(inst, c, epsilon, seed, **kwargs)
    lo, hi, eq1 = report or (None, None, None)
    assert out.to_dict() == {
        "status": status, "subset": None if subset is None else list(subset),
        "lambda_min": lo, "lambda_max": hi,
        "stats": dict(zip((f.name for f in dataclasses.fields(SolveStats)), stats))}
    assert out.report == (report and SubsetReport(subset, lo, hi, eq1, True, c, epsilon))
    assert out.final_subsets == final


# --- the order contract ----------------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.integers(16, 28), st.integers(0, 2**16),
       st.sampled_from([0.15, 0.2, 0.25]), st.integers(3, 5))
def test_band_search_yields_rows_in_lex_order(d, m, seed, ca, n):
    # The first gate hit in block order must be the lex-least hit of its
    # level, so every search's depth-i rows come in strictly increasing lex
    # order across blocks, here on the sampled path (mu = 1), with a band
    # near its widest (c sqrt(alpha) = ca), skips and the size filter.
    inst = gen_random(d, m, seed=seed)
    params = _with(inst, ca / math.sqrt(inst.alpha), 0.3, mu=1.0, n=n)
    searches, skipped, real = [], [0], solver_module.band_search

    def recording(outers, root, band, eta, drop, split, lex):
        assert lex

        def split_seen(k, block):
            excl, fresh = split(k, block)
            skipped[0] += 0 if excl is None else int(np.count_nonzero(~excl))
            return excl, fresh

        rows = []
        searches.append(rows)
        for block in real(outers, root, band, eta, drop, split_seen, lex=lex):
            rows.extend(map(tuple, block[1].tolist()))
            yield block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "band_search", recording)
        stats = solve(inst, params.c, 0.3, seed, params_override=params).stats
    assume(skipped[0] and stats.size_filtered)
    for rows in searches:
        assert all(a < b for a, b in zip(rows, rows[1:]))

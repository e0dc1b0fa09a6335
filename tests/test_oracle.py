import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ks2 import Instance, gen_planted, gen_random, subset_distance, validate
from ks2 import oracle as oracle_mod
from ks2.errors import TooLarge
from ks2.linalg import distance_half, eig_extremes_stack
from ks2.oracle import (
    _bb_search,
    _interlacing_bound,
    _lower_triangle,
    _prefilter_slack,
    _subset_sums,
    branch_bound_w,
    brute_force_w,
    with_threshold,
)

from conftest import random_rotation
from reference_oracle import (
    bits,
    reference_branch_bound_w,
    reference_brute_force_w,
    reference_table_w,
)


class TestSubsetSumTable:
    def test_rows_are_from_scratch_grams(self):
        inst = gen_random(4, 12, seed=21)
        vectors = inst.vectors
        sums = _subset_sums(vectors[:, :, None] * vectors[:, None, :])
        assert sums.shape == (2**12, 4, 4)
        assert not sums[0].any()
        for t in range(2**12):
            np.testing.assert_allclose(sums[t], inst.gram(bits(t, 12)).a, rtol=0, atol=1e-12)

    def test_many_chunks_match_table_reference(self, monkeypatch):
        # Three low bits split a 9-vector instance into 64 chunks of 8, most
        # of which the prefilter skips.
        monkeypatch.setattr(oracle_mod, "_LOW_BITS", 3)
        inst = gen_random(3, 9, seed=4)
        res = brute_force_w(inst)
        assert res.subsets_examined == 2**9
        assert res.eigensolved < 2**9 // 4
        assert res.w_value == subset_distance(inst, res.argmin_subset)
        assert res.w_value == pytest.approx(reference_brute_force_w(inst).w_value, abs=1e-12)
        ref = reference_table_w(inst)
        assert (res.w_value, res.argmin_subset, res.subsets_examined) == (
            ref.w_value, ref.argmin_subset, ref.subsets_examined)


class TestBruteForce:
    def test_axis_pairs_split_exactly(self, axis_pairs_d3):
        res = brute_force_w(axis_pairs_d3)
        assert res.w_value <= 1e-12
        assert res.subsets_examined == 2**6
        assert subset_distance(axis_pairs_d3, res.argmin_subset) == res.w_value
        # an exact half split takes one copy from each pair
        assert len(res.argmin_subset) == 3

    def test_planted_reaches_zero(self):
        inst, _ = gen_planted(3, 4, seed=1)
        res = brute_force_w(inst)
        assert res.w_value <= 1e-12

    def test_stress_instance_floor(self, stress_notfound):
        res = brute_force_w(stress_notfound)
        assert res.w_value == pytest.approx(0.5, abs=1e-12)

    def test_reference_and_batched_agree(self):
        for seed in range(4):
            inst = gen_random(3, 9, seed=seed)
            fast = brute_force_w(inst)
            ref = reference_brute_force_w(inst)
            assert fast.w_value == pytest.approx(ref.w_value, abs=1e-12)
            assert subset_distance(inst, fast.argmin_subset) == pytest.approx(
                ref.w_value, abs=1e-12)

    def test_repeat_runs_identical(self):
        inst = gen_random(3, 16, seed=5)
        a = brute_force_w(inst)
        b = brute_force_w(inst, threads=1)  # the benchmark's call; threads is ignored
        assert a == b
        assert a.to_dict() == b.to_dict()
        assert 0 < a.eigensolved <= a.subsets_examined

    def test_too_large(self):
        inst = gen_random(3, 10, seed=2)
        with pytest.raises(TooLarge):
            brute_force_w(inst, m_limit=8)

    def test_raised_limit_warns(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "DEFAULT_M_LIMIT", 4)
        inst = gen_random(3, 6, seed=2)
        with pytest.warns(RuntimeWarning):
            oracle_mod.brute_force_w(inst, m_limit=10)

    def test_negation_invariance(self):
        inst = gen_random(3, 9, seed=7)
        neg = validate(Instance(-inst.vectors))
        assert brute_force_w(inst).w_value == pytest.approx(
            brute_force_w(neg).w_value, abs=1e-12)

    def test_rotation_invariance(self):
        inst = gen_random(3, 9, seed=9)
        q = random_rotation(3, seed=3)
        rotated = validate(Instance(inst.vectors @ q.T))
        assert brute_force_w(inst).w_value == pytest.approx(
            brute_force_w(rotated).w_value, abs=1e-8)

    def test_complement_attains_same_distance(self):
        inst = gen_random(3, 8, seed=13)
        res = brute_force_w(inst)
        comp = [i for i in range(inst.num_vectors) if i not in set(res.argmin_subset)]
        assert subset_distance(inst, comp) == pytest.approx(res.w_value, abs=1e-8)


class TestEq1Feasible:
    def test_planted_feasible(self):
        inst, _ = gen_planted(3, 4, seed=1)
        res = with_threshold(inst, brute_force_w(inst), c=0.01)
        assert res.feasible_eq1
        assert subset_distance(inst, res.argmin_subset) <= 0.01 * np.sqrt(inst.alpha)

    def test_boundary_threshold_zero(self, dyadic_axes_d3):
        # All subset sums are exact dyadics, so the optimum is exactly zero
        # and remains feasible at threshold c = 0.
        res = with_threshold(dyadic_axes_d3, brute_force_w(dyadic_axes_d3), c=0.0)
        assert res.feasible_eq1
        assert subset_distance(dyadic_axes_d3, res.argmin_subset) == 0.0

    def test_stress_infeasible(self, stress_notfound):
        res = with_threshold(stress_notfound, brute_force_w(stress_notfound), c=0.4)
        assert not res.feasible_eq1


class TestBranchBound:
    def test_certifies_satisfiable_fixture(self, fsat3_built):
        # Direction 1 of the hardness construction at full scale: a
        # NAE-satisfiable formula's instance has optimum 0.  Enumeration over
        # 2^27 subsets is out of reach; pruning collapses it to a few
        # thousand leaves once the incumbent hits ~0.
        inst, _ = fsat3_built
        res = branch_bound_w(inst, node_limit=2_000_000)
        assert res.w_value <= 1e-12

    def test_certifies_unsatisfiable_fixture(self, funsat4_built):
        # Direction 2 at full scale: the optimum stays above the gap
        # 1/(8*sqrt(2)) * 1 = c*sqrt(alpha) for c = 1/(4*sqrt(2)), so the
        # exact band is infeasible at that c.  The computed optimum lands
        # exactly on the doubled value 1/(4*sqrt(2)).
        inst, _ = funsat4_built
        res = branch_bound_w(inst, node_limit=10_000_000)
        c = 1.0 / (4.0 * np.sqrt(2.0))
        gap = c * np.sqrt(inst.alpha)
        assert res.w_value >= gap - 1e-9
        assert res.w_value > gap  # band infeasible at threshold c*sqrt(alpha)
        assert res.w_value == pytest.approx(1.0 / (4.0 * np.sqrt(2.0)), abs=1e-9)

    def test_matches_exhaustive_on_randoms(self):
        for seed in range(5):
            inst = gen_random(3, 10, seed=seed)
            a = brute_force_w(inst)
            b = branch_bound_w(inst)
            assert b.w_value == pytest.approx(a.w_value, abs=1e-12)
            assert subset_distance(inst, b.argmin_subset) == pytest.approx(
                a.w_value, abs=1e-12)
            assert b.subsets_examined <= a.subsets_examined

    def test_matches_on_planted(self):
        inst, _ = gen_planted(3, 5, seed=4)
        assert branch_bound_w(inst).w_value == pytest.approx(
            brute_force_w(inst).w_value, abs=1e-12)

    def test_node_limit(self):
        inst = gen_random(3, 12, seed=6)
        with pytest.raises(TooLarge):
            branch_bound_w(inst, node_limit=3)

    def test_nodes_is_what_node_limit_counts(self):
        inst = gen_random(3, 12, seed=6)
        res = branch_bound_w(inst)
        assert res == branch_bound_w(inst)
        assert res.to_dict()["nodes"] == res.nodes >= res.subsets_examined
        assert "eigensolved" not in res.to_dict()
        assert branch_bound_w(inst, node_limit=res.nodes) == res
        with pytest.raises(TooLarge):
            branch_bound_w(inst, node_limit=res.nodes - 1)


# d in 2..5 and m in 8..14 cycle independently (4 and 7 are coprime).
BLOCKED_CASES = (
    [pytest.param("random", 2 + s % 4, 8 + s % 7, s, id=f"random-{s}") for s in range(100)]
    + [pytest.param("planted", 2 + s % 4, 4 + s % 4, s, id=f"planted-{s}") for s in range(12)]
    + [pytest.param("fsat3_built", 0, 0, 0, id="F_SAT3"),
       pytest.param("funsat4_built", 0, 0, 0, id="F_UNSAT4")])


@pytest.mark.parametrize("kind, d, size, seed", BLOCKED_CASES)
def test_blocked_search_matches_node_by_node_reference(request, kind, d, size, seed):
    # Blocking changes the visiting order only: the minimum found must be the
    # one-node-at-a-time search's minimum, bit for bit.
    if kind == "random":
        inst = gen_random(d, size, seed=seed)
    elif kind == "planted":
        inst, _ = gen_planted(d, size, seed=seed)
    else:
        inst, _ = request.getfixturevalue(kind)
    w, _, leaves, _ = _bb_search(inst, None)
    assert w == reference_branch_bound_w(inst).w_value
    assert leaves <= 2 ** inst.num_vectors


@pytest.mark.parametrize("seed", range(6))
def test_reported_w_is_distance_of_argmin(seed):
    inst = gen_random(4, 12, seed=seed)
    for res in (brute_force_w(inst), branch_bound_w(inst)):
        assert res.w_value == subset_distance(inst, res.argmin_subset)


# --- the interlacing prefilter ---------------------------------------------------

# d in 1..6 with one or two chunks (m = 15, 16) and one small m; planted
# instances have W = 0 attained by many subsets and their complements.
FILTER_CASES = (
    [pytest.param("random", d, m, s, id=f"random-d{d}-m{m}")
     for d in range(1, 7) for s, m in enumerate((d + 3, 15, 16))]
    + [pytest.param("planted", d, k, k, id=f"planted-d{d}-k{k}")
       for d in range(1, 6) for k in (6, 8)])


def _instance(kind, d, size, seed):
    return gen_random(d, size, seed=seed) if kind == "random" else gen_planted(d, size, seed)[0]


def _outputs(res):
    return res.w_value, res.argmin_subset, res.subsets_examined


@pytest.mark.parametrize("kind, d, size, seed", FILTER_CASES)
def test_prefilter_matches_unfiltered_table(kind, d, size, seed):
    inst = _instance(kind, d, size, seed)
    res = brute_force_w(inst)
    assert _outputs(res) == _outputs(reference_table_w(inst))
    assert res.eigensolved <= res.subsets_examined


@pytest.mark.parametrize("kind, d, size, seed", [
    pytest.param("random", d, 9 + d % 2, d, id=f"random-d{d}") for d in range(1, 7)] + [
    pytest.param("planted", d, 6, d, id=f"planted-d{d}") for d in range(1, 6)])
def test_prefilter_matches_unfiltered_table_in_small_chunks(monkeypatch, kind, d, size, seed):
    # 8 subsets per chunk: the incumbent carries across many chunks, most
    # skipped; survivors go to the eigensolve in batches of 3.
    monkeypatch.setattr(oracle_mod, "_LOW_BITS", 3)
    monkeypatch.setattr(oracle_mod, "_SOLVE_BATCH", 3)
    inst = _instance(kind, d, size, seed)
    assert _outputs(brute_force_w(inst)) == _outputs(reference_table_w(inst))


def test_prefilter_rules_nothing_out_when_squares_could_overflow():
    # Entries near 1e100 square past the double range inside the bound.
    inst = Instance(gen_random(3, 9, seed=3).vectors * 1e100)
    res = brute_force_w(inst)
    assert _outputs(res) == _outputs(reference_table_w(inst))
    assert res.eigensolved == 2**9


@st.composite
def gram_families(draw):
    """Vectors whose subset Grams include generic, rank-deficient and
    repeated-eigenvalue matrices (scaled orthonormal rows, repeated)."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["generic", "rank-deficient", "repeated"]))
    if kind == "generic":
        return rng.standard_normal((d + draw(st.integers(0, 3)), d))
    if kind == "rank-deficient":
        return rng.standard_normal((draw(st.integers(1, max(1, d - 1))), d)) * draw(
            st.sampled_from([1e-3, 1.0, 10.0]))
    q = np.eye(d) if draw(st.booleans()) else np.linalg.qr(rng.standard_normal((d, d)))[0]
    scales = draw(st.lists(st.sampled_from([0.5, 2**-0.5, 1.0, 0.1]), min_size=1, max_size=2))
    return np.concatenate([q * s for s in scales])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gram_families())
def test_interlacing_bound_is_sound(vectors):
    # Computed lb - slack <= computed dev on every subset Gram of the family.
    d = vectors.shape[1]
    rows, cols, pairs = _lower_triangle(d)
    grams = _subset_sums(vectors[:, :, None] * vectors[:, None, :])
    low = np.ascontiguousarray(grams[:, rows, cols].T)
    lb = _interlacing_bound(low, np.zeros(len(rows)), pairs,
                            np.empty((3, pairs.shape[1], len(grams))))
    dev = distance_half(*eig_extremes_stack(grams))
    slack = _prefilter_slack(vectors)
    assert np.all(lb - slack <= dev), float(np.max(lb - dev))
    if d <= 2:  # the bound is the spectrum itself
        assert np.all(np.abs(lb - dev) <= slack)

import numpy as np
import pytest

from ks2 import Instance, gen_planted, gen_random, subset_distance, validate
from ks2 import oracle as oracle_mod
from ks2.errors import TooLarge
from ks2.oracle import (
    _bb_search,
    _subset_sums,
    branch_bound_w,
    brute_force_w,
    with_threshold,
)

from conftest import random_rotation
from reference_oracle import bits, reference_branch_bound_w, reference_brute_force_w


class TestSubsetSumTable:
    def test_rows_are_from_scratch_grams(self):
        inst = gen_random(4, 12, seed=21)
        vectors = inst.vectors
        sums = _subset_sums(vectors[:, :, None] * vectors[:, None, :])
        assert sums.shape == (2**12, 4, 4)
        assert not sums[0].any()
        for t in range(2**12):
            np.testing.assert_allclose(sums[t], inst.gram(bits(t, 12)).a, rtol=0, atol=1e-12)

    def test_many_chunks_match_across_threads_and_reference(self, monkeypatch):
        # Three low bits split a 9-vector instance into 64 chunks of 8.
        monkeypatch.setattr(oracle_mod, "_LOW_BITS", 3)
        inst = gen_random(3, 9, seed=4)
        one = brute_force_w(inst, threads=1)
        two = brute_force_w(inst, threads=2)
        assert one == two
        assert one.subsets_examined == 2**9
        assert one.w_value == subset_distance(inst, one.argmin_subset)
        assert one.w_value == pytest.approx(reference_brute_force_w(inst).w_value, abs=1e-12)


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

    def test_threads_deterministic(self):
        inst = gen_random(3, 11, seed=5)
        a = brute_force_w(inst)
        b = brute_force_w(inst, threads=4)
        assert a.w_value == b.w_value
        assert a.argmin_subset == b.argmin_subset

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
    w, _, leaves = _bb_search(inst, None)
    assert w == reference_branch_bound_w(inst).w_value
    assert leaves <= 2 ** inst.num_vectors


@pytest.mark.parametrize("seed", range(6))
def test_reported_w_is_distance_of_argmin(seed):
    inst = gen_random(4, 12, seed=seed)
    for res in (brute_force_w(inst), branch_bound_w(inst)):
        assert res.w_value == subset_distance(inst, res.argmin_subset)

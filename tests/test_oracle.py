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
    _flip_generators,
    branch_bound_w,
    brute_force_w,
    with_threshold,
)

from conftest import gram_families, random_rotation
from reference_oracle import (
    bits,
    reference_branch_bound_w,
    reference_brute_force_w,
    reference_table_w,
    rounding_bound,
    subset_sums,
)


class TestSubsetSumTable:
    """The reference's doubling table, which every subset is checked against."""

    def test_rows_are_from_scratch_grams(self):
        inst = gen_random(4, 12, seed=21)
        vectors = inst.vectors
        sums = subset_sums(vectors[:, :, None] * vectors[:, None, :])
        assert sums.shape == (2**12, 4, 4)
        assert not sums[0].any()
        for t in range(2**12):
            np.testing.assert_allclose(sums[t], inst.gram(bits(t, 12)).a, rtol=0, atol=1e-12)

    def test_many_chunks_match_table_reference(self):
        # Three low bits split a 9-vector instance into 64 chunks of 8; the
        # chunked table agrees with the one-chunk table and with the search.
        inst = gen_random(3, 9, seed=4)
        ref = reference_table_w(inst, low_bits=3)
        assert ref == reference_table_w(inst)
        assert ref.w_value == pytest.approx(reference_brute_force_w(inst).w_value, abs=1e-12)
        res = brute_force_w(inst)
        assert res.subsets_examined == ref.subsets_examined == 2**9
        assert 0 < res.eigensolved <= 2**9
        assert res.w_value == subset_distance(inst, res.argmin_subset)
        assert abs(res.w_value - ref.w_value) <= 3 * rounding_bound(inst.vectors)


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
        assert a == b == branch_bound_w(inst)
        assert a.to_dict() == b.to_dict()
        assert 0 < a.eigensolved <= a.subsets_examined

    def test_too_large(self):
        inst = gen_random(3, 10, seed=2)
        with pytest.raises(TooLarge):
            brute_force_w(inst, m_limit=8)

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
            a = reference_brute_force_w(inst)
            b = branch_bound_w(inst)
            assert b.w_value == pytest.approx(a.w_value, abs=1e-12)
            assert subset_distance(inst, b.argmin_subset) == pytest.approx(
                a.w_value, abs=1e-12)
            assert b.subsets_examined == a.subsets_examined
            assert 0 < b.eigensolved <= a.eigensolved and b.nodes <= a.nodes

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
        assert res.to_dict()["nodes"] == res.nodes >= res.eigensolved
        assert res.to_dict()["eigensolved"] == res.eigensolved
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
    w, _, leaves, nodes, cut = _bb_search(inst, None)
    assert w == reference_branch_bound_w(inst).w_value
    assert cut <= nodes
    assert leaves <= 2 ** inst.num_vectors
    # A full tree over m vectors has 2^(m+1) - 1 nodes: ks oracle's default --node-limit.
    assert nodes <= 2 ** (inst.num_vectors + 1) - 1


@pytest.mark.parametrize("seed", range(6))
def test_reported_w_is_distance_of_argmin(seed):
    inst = gen_random(4, 12, seed=seed)
    res = branch_bound_w(inst)
    assert res.w_value == subset_distance(inst, res.argmin_subset)


# --- the completion bound as the filter: the search against the unfiltered table --

# d in 1..6 with m from d + 3 to 16 and planted instances, whose W = 0 is
# attained by many subsets and their complements; plus entries near 1e100,
# whose outer products are near 1e200.
FILTER_CASES = (
    [pytest.param("random", d, m, s, id=f"random-d{d}-m{m}")
     for d in range(1, 7) for s, m in enumerate((d + 3, 15, 16))]
    + [pytest.param("planted", d, k, k, id=f"planted-d{d}-k{k}")
       for d in range(1, 6) for k in (6, 8)]
    + [pytest.param("scaled", 3, 9, 3, id="scaled-1e100")])


def _instance(kind, d, size, seed):
    if kind == "planted":
        return gen_planted(d, size, seed)[0]
    inst = gen_random(d, size, seed=seed)
    return Instance(inst.vectors * 1e100) if kind == "scaled" else inst


def _assert_matches_table(inst, res, ref):
    assert res.w_value == subset_distance(inst, res.argmin_subset)
    assert abs(res.w_value - ref.w_value) <= 3 * rounding_bound(inst.vectors), (
        res.w_value, ref.w_value)


@pytest.mark.parametrize("kind, d, size, seed", FILTER_CASES)
def test_prefilter_matches_unfiltered_table(kind, d, size, seed):
    # The completion bound rules subsets out before any eigensolve; the w it
    # leaves is within the docstring's rounding bound of the table's.
    inst = _instance(kind, d, size, seed)
    res = brute_force_w(inst)
    _assert_matches_table(inst, res, reference_table_w(inst))
    assert res.subsets_examined == 2 ** inst.num_vectors
    assert res.eigensolved <= res.subsets_examined


@pytest.mark.parametrize("kind, d, size, seed", [
    pytest.param("random", d, 9 + d % 2, d, id=f"random-d{d}") for d in range(1, 7)] + [
    pytest.param("planted", d, 6, d, id=f"planted-d{d}") for d in range(1, 6)])
def test_prefilter_matches_unfiltered_table_in_small_chunks(monkeypatch, kind, d, size, seed):
    # Blocks of 3 nodes: the incumbent carries across many blocks, and the
    # table reference is cut into chunks of 8.
    monkeypatch.setattr(oracle_mod, "_BLOCK", 3)
    inst = _instance(kind, d, size, seed)
    _assert_matches_table(inst, branch_bound_w(inst), reference_table_w(inst, low_bits=3))


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_vectors_keep_w(seed):
    # Reordering the input changes the summation order, and among ties the
    # argmin, but w stays within the rounding bound.
    inst = gen_random(4, 13, seed=seed) if seed % 2 else gen_planted(3, 6, seed)[0]
    perm = np.random.default_rng(seed).permutation(inst.num_vectors)
    shuffled = Instance(inst.vectors[perm])
    a, b = branch_bound_w(inst), branch_bound_w(shuffled)
    assert b.w_value == subset_distance(shuffled, b.argmin_subset)
    assert abs(a.w_value - b.w_value) <= 3 * rounding_bound(inst.vectors), (a.w_value, b.w_value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gram_families())
def test_completion_bound_is_sound(vectors):
    # Every node's bound, computed as the search computes it, is at most
    # eps above the computed deviation of every leaf below it.  Row t of the
    # table after i doublings is the partial sum P of the node that chose
    # bitmask t among the first i vectors, summed in the search's order.
    m, d = vectors.shape
    outers = vectors[:, :, None] * vectors[:, None, :]
    suffix = np.zeros((m + 1, d, d))
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + outers[i]
    leaves = subset_sums(outers)
    leaf_dev = distance_half(*eig_extremes_stack(leaves))
    eps = rounding_bound(vectors)
    for i in range(m + 1):
        p = leaves[:2**i]
        lo = eig_extremes_stack(p + suffix[i])[0]
        bound = np.maximum(distance_half(lo, eig_extremes_stack(p)[1]), 0.0)
        below = leaf_dev.reshape(2 ** (m - i), 2**i).min(axis=0)
        assert np.all(bound - eps <= below), float(np.max(bound - below))


# --- coordinate-flip symmetry cuts -----------------------------------------------

def _assert_is_flip(vectors, k, sigma):
    # sigma is an involution other than the identity, D_k v_j = +-v_sigma(j)
    # exactly, and so outer(v_sigma(j)) = D_k outer(v_j) D_k exactly.
    m, d = vectors.shape
    assert np.array_equal(sigma[sigma], np.arange(m)) and (sigma != np.arange(m)).any()
    flipped = vectors.copy()
    flipped[:, k] = -flipped[:, k]
    assert all(np.array_equal(f, vectors[t]) or np.array_equal(f, -vectors[t])
               for f, t in zip(flipped, sigma))
    outers = vectors[:, :, None] * vectors[:, None, :]
    signs = np.where(np.arange(d) == k, -1.0, 1.0)
    assert np.array_equal(outers[sigma], signs[:, None] * outers * signs)


class TestFlipGenerators:
    @pytest.mark.parametrize("fixture, dim", [("fsat3_built", 6), ("funsat4_built", 7)])
    def test_every_gadget_coordinate_flips(self, request, fixture, dim):
        inst, _ = request.getfixturevalue(fixture)
        flips = _flip_generators(inst.vectors)
        assert inst.dim == dim and [k for k, _ in flips] == list(range(dim))
        for k, sigma in flips:
            _assert_is_flip(inst.vectors, k, sigma)

    def test_random_and_planted_have_none(self):
        for s in range(20):
            assert _flip_generators(gen_random(2 + s % 4, 8 + s % 7, seed=s).vectors) == []
            assert _flip_generators(gen_planted(2 + s % 4, 4 + s % 4, s)[0].vectors) == []

    def test_duplicate_zero_and_permuted_rows(self, axis_pairs_d3):
        a, b = 0.6, 0.8
        rows = np.array([[a, b], [a, -b], [0.0, 0.0], [-a, -b], [a, -b], [0.0, -0.0]])
        flips = _flip_generators(rows)
        assert [k for k, _ in flips] == [0, 1]
        for k, sigma in flips:
            # Equal rows (up to sign) pair in index order; zero rows stay put.
            assert sigma.tolist() == [1, 0, 2, 4, 3, 5]
        perm = np.array([3, 5, 0, 2, 1, 4])
        permuted = _flip_generators(rows[perm])
        assert [k for k, _ in permuted] == [0, 1]
        for k, sigma in permuted:
            _assert_is_flip(rows[perm], k, sigma)
        # Unmatched duplicate counts: no flip maps the rows onto themselves.
        assert _flip_generators(np.array([[a, b], [a, b], [a, -b]])) == []
        # Each axis vector is its own flip up to sign: sigma would be the identity.
        assert _flip_generators(axis_pairs_d3.vectors) == []


@st.composite
def flip_closed_families(draw):
    """gen_random(d, r) rows closed under the flips of a drawn coordinate set
    K, scaled by 2^(-|K|/2) to stay isotropic; m = r 2^|K| <= 16."""
    d = draw(st.integers(2, 5))
    most = min(d, (16 // d).bit_length() - 1)  # the largest |K| with d <= 16 / 2^|K|
    flips = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=most, unique=True))
    r = draw(st.integers(d, 16 >> len(flips)))
    rows = gen_random(d, r, seed=draw(st.integers(0, 2**16))).vectors
    for k in flips:
        flipped = rows.copy()
        flipped[:, k] = -flipped[:, k]
        rows = np.concatenate([rows, flipped])
    return Instance(rows * 2.0 ** (-len(flips) / 2)), flips


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flip_closed_families())
def test_flip_cuts_match_unfiltered_table(case):
    # The cuts keep every orbit's lex-leader, so w stays within the rounding
    # bound of the pass that evaluates every subset.
    inst, flips = case
    found = _flip_generators(inst.vectors)
    assert set(flips) <= {k for k, _ in found}
    for k, sigma in found:
        _assert_is_flip(inst.vectors, k, sigma)
    _assert_matches_table(inst, branch_bound_w(inst), reference_table_w(inst))


@pytest.mark.parametrize("fixture", ["fsat3_built", "funsat4_built"])
def test_flip_cuts_keep_uncut_w(request, monkeypatch, fixture):
    inst, _ = request.getfixturevalue(fixture)
    res = branch_bound_w(inst)
    assert 0 < res.cut < res.nodes and res.to_dict()["cut"] == res.cut
    # Cut nodes are popped nodes: node_limit counts them.
    assert branch_bound_w(inst, node_limit=res.nodes) == res
    with pytest.raises(TooLarge):
        branch_bound_w(inst, node_limit=res.nodes - 1)
    monkeypatch.setattr(oracle_mod, "_flip_generators", lambda vectors: [])
    uncut = branch_bound_w(inst)
    assert uncut.cut == 0 and uncut.nodes > res.nodes
    assert abs(res.w_value - uncut.w_value) <= 3 * rounding_bound(inst.vectors), (
        res.w_value, uncut.w_value)

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ks2 import Instance, gen_planted, gen_random, subset_distance, validate
from ks2 import oracle as oracle_mod
from ks2.errors import DegenerateSample, TooLarge
from ks2.linalg import distance_half, eig_extremes_stack
from ks2.oracle import (
    _bb_search,
    _cut_permutations,
    _symmetries,
    _lex_greater,
    _lex_weights,
    branch_bound_w,
    brute_force_w,
    with_threshold,
)

import reference_oracle
from conftest import gram_families, random_rotation
from reference_oracle import (
    bits,
    reference_branch_bound_w,
    reference_brute_force_w,
    reference_eager_search,
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


def _blocked_instance(request, kind, d, size, seed):
    if kind == "random":
        return gen_random(d, size, seed=seed)
    if kind == "planted":
        return gen_planted(d, size, seed=seed)[0]
    return request.getfixturevalue(kind)[0]


@pytest.mark.parametrize("kind, d, size, seed", BLOCKED_CASES)
def test_blocked_search_matches_node_by_node_reference(request, kind, d, size, seed):
    # Blocking changes the visiting order only: the minimum found must be the
    # one-node-at-a-time search's minimum, bit for bit.
    inst = _blocked_instance(request, kind, d, size, seed)
    w, _, leaves, nodes, cut = _bb_search(inst, None)
    assert w == reference_branch_bound_w(inst).w_value
    # A full tree over m vectors has 2^(m+1) - 1 nodes: ks oracle's default --node-limit.
    assert leaves <= 2 ** inst.num_vectors
    assert leaves <= nodes <= 2 ** (inst.num_vectors + 1) - 1
    assert cut <= nodes


def _run_counted(monkeypatch, search, inst):
    """search(inst, None) and the number of matrices it eigensolved."""
    sizes = []

    def counting(stack):
        sizes.append(len(stack))
        return eig_extremes_stack(stack)

    for module in (oracle_mod, reference_oracle):
        monkeypatch.setattr(module, "eig_extremes_stack", counting)
    return search(inst, None), sum(sizes)


@pytest.mark.parametrize("block", [128, 3], ids=["block-128", "block-3"])
@pytest.mark.parametrize("kind, d, size, seed", BLOCKED_CASES)
def test_interval_bounds_decide_as_eager_search(request, monkeypatch, kind, d, size, seed,
                                                block):
    # A computed value always lies in its interval, so every keep or prune is
    # the one made by computing every bound: the whole result is the eager
    # search's, and the intervals never cost an extra eigensolve.
    monkeypatch.setattr(oracle_mod, "_BLOCK", block)
    inst = _blocked_instance(request, kind, d, size, seed)
    eager, eager_solved = _run_counted(monkeypatch, reference_eager_search, inst)
    res, solved = _run_counted(monkeypatch, _bb_search, inst)
    assert res == eager
    assert solved <= eager_solved


def test_overflowing_slack_decides_as_eager_search(monkeypatch):
    # T = 3 * 2^1022 is finite but 2T + 1 overflows, so the slack is inf: no
    # interval but an exclude child's hi, its parent's value, decides a test.
    inst = Instance(gen_random(3, 9, seed=3).vectors * 2.0 ** 511)
    t = float(np.sum(inst.vectors * inst.vectors))
    assert np.isfinite(t) and 2 * t + 1 == np.inf
    eager, eager_solved = _run_counted(monkeypatch, reference_eager_search, inst)
    res, solved = _run_counted(monkeypatch, _bb_search, inst)
    assert res == eager and np.isfinite(res[0])
    assert solved <= eager_solved


@pytest.mark.parametrize("kind", ["random", "funsat4_built"])
def test_interval_bounds_solve_fewer_matrices(request, monkeypatch, kind):
    # branch_bound_w's order, on the benchmark's instance size and on the
    # unsatisfiable gadget.
    inst = (gen_random(5, 20, seed=1) if kind == "random"
            else request.getfixturevalue(kind)[0])
    res, solved = _run_counted(monkeypatch, lambda inst, _: branch_bound_w(inst), inst)
    monkeypatch.setattr(oracle_mod, "_bb_search", reference_eager_search)
    eager, eager_solved = _run_counted(monkeypatch, lambda inst, _: branch_bound_w(inst), inst)
    assert res == eager
    assert solved < eager_solved


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


# --- symmetry cuts: flips, signed coordinate permutations, equal rows -----------

def _assert_is_symmetry(vectors, q, sigma):
    # Q is a signed permutation matrix, sigma a permutation other than the
    # identity, Q v_j = +-v_sigma(j) exactly, and so outer(v_sigma(j)) =
    # Q outer(v_j) Q^T exactly.
    m, d = vectors.shape
    assert np.array_equal(np.sort(sigma), np.arange(m)) and (sigma != np.arange(m)).any()
    assert set(np.unique(q)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(np.abs(q).sum(axis=0), np.ones(d))
    assert np.array_equal(np.abs(q).sum(axis=1), np.ones(d))
    assert all(np.array_equal(f, vectors[t]) or np.array_equal(f, -vectors[t])
               for f, t in zip(vectors @ q.T, sigma))
    outers = vectors[:, :, None] * vectors[:, None, :]
    assert np.array_equal(outers[sigma], q @ outers @ q.T)


def _generators(found):
    """Every (Q, sigma) that _symmetries found, of every kind."""
    return [pair for kind in ("flips", "permutations", "transpositions") for pair in found[kind]]


def _flipped(q):
    """The coordinate k of a flip Q = D_k."""
    return int(np.flatnonzero(np.diag(q) < 0)[0])


def _generated(perms, m):
    """The group the permutations perms generate, as a dict by bytes."""
    identity = np.arange(m)
    group, todo = {identity.tobytes(): identity}, [identity]
    while todo:
        g = todo.pop()
        for s in perms:
            h = s[g]
            if h.tobytes() not in group:
                group[h.tobytes()] = h
                todo.append(h)
    return group


NO_SYMMETRY = {"flips": [], "permutations": [], "transpositions": []}


class TestFlipGenerators:
    @pytest.mark.parametrize("fixture, dim", [("fsat3_built", 6), ("funsat4_built", 7)])
    def test_every_gadget_coordinate_flips(self, request, fixture, dim):
        inst, _ = request.getfixturevalue(fixture)
        found = _symmetries(inst.vectors)
        assert inst.dim == dim and [_flipped(q) for q, _ in found["flips"]] == list(range(dim))
        for q, sigma in _generators(found):
            _assert_is_symmetry(inst.vectors, q, sigma)

    @pytest.mark.parametrize("fixture, order", [("fsat3_built", 6 * 32), ("funsat4_built", 24 * 64)])
    def test_gadget_generators_give_the_whole_group(self, request, fixture, order):
        # The clause permutations (S3 and S4) act as signed coordinate
        # permutations, each with every flip pattern, and -I fixes every
        # vector up to sign: 6 * 2^6 / 2 and 24 * 2^7 / 2 permutations of the
        # vectors.  The chain keeps two and three generators of them.
        inst, _ = request.getfixturevalue(fixture)
        found = _symmetries(inst.vectors)
        assert len(found["permutations"]) == (2 if fixture == "fsat3_built" else 3)
        gens = [sigma for _, sigma in found["flips"] + found["permutations"]]
        assert len(_generated(gens, inst.num_vectors)) == order

    def test_random_and_planted_have_none(self):
        # Random instances have no symmetry at all.  gen_planted emits every
        # vector twice, adjacent, and has only the transpositions of the pairs.
        for s in range(20):
            assert _symmetries(gen_random(2 + s % 4, 8 + s % 7, seed=s).vectors) == NO_SYMMETRY
            k = 4 + s % 4
            vectors = gen_planted(2 + s % 4, k, s)[0].vectors
            found = _symmetries(vectors)
            assert found["flips"] == found["permutations"] == []
            pairs = sorted(tuple(np.flatnonzero(sigma != np.arange(2 * k)).tolist())
                           for _, sigma in found["transpositions"])
            assert pairs == [(2 * j, 2 * j + 1) for j in range(k)]
            for q, sigma in found["transpositions"]:
                assert np.array_equal(q, np.eye(vectors.shape[1]))
                _assert_is_symmetry(vectors, q, sigma)
            assert len(_cut_permutations(vectors)) == k

    def test_duplicate_zero_and_permuted_rows(self, axis_pairs_d3):
        a, b = 0.6, 0.8
        rows = np.array([[a, b], [a, -b], [0.0, 0.0], [-a, -b], [a, -b], [0.0, -0.0]])
        found = _symmetries(rows)
        assert [_flipped(q) for q, _ in found["flips"]] == [0, 1]
        for _, sigma in found["flips"]:
            # Equal rows (up to sign) pair in index order; zero rows stay put.
            assert sigma.tolist() == [1, 0, 2, 4, 3, 5]
        # One transposition per pair of rows equal up to sign, zero rows too.
        assert sorted(sigma.tolist() for _, sigma in found["transpositions"]) == [
            [0, 1, 5, 3, 4, 2], [0, 4, 2, 3, 1, 5], [3, 1, 2, 0, 4, 5]]
        assert found["permutations"] == []  # |V[:, 0]| and |V[:, 1]| differ
        perm = np.array([3, 5, 0, 2, 1, 4])
        permuted = _symmetries(rows[perm])
        assert [_flipped(q) for q, _ in permuted["flips"]] == [0, 1]
        for q, sigma in _generators(permuted):
            _assert_is_symmetry(rows[perm], q, sigma)
        # Unmatched duplicate counts: no flip maps the rows onto themselves,
        # but the two equal rows swap.
        found = _symmetries(np.array([[a, b], [a, b], [a, -b]]))
        assert found["flips"] == found["permutations"] == []
        assert [sigma.tolist() for _, sigma in found["transpositions"]] == [[1, 0, 2]]
        # Each axis vector is its own flip up to sign: sigma would be the
        # identity.  The axes permute, though, and each pair swaps.
        found = _symmetries(axis_pairs_d3.vectors)
        assert found["flips"] == [] and len(found["permutations"]) == 2
        assert len(found["transpositions"]) == 3
        for q, sigma in _generators(found):
            _assert_is_symmetry(axis_pairs_d3.vectors, q, sigma)

    @pytest.mark.parametrize("fixture, count", [("fsat3_built", 43), ("funsat4_built", 58)])
    def test_cut_permutations_are_flip_products(self, request, fixture, count):
        # The flips and signed permutations, every product of two of them in
        # either order, and the transpositions: each an exact symmetry
        # Q A_S Q^T = A_{g S}, Q the product of its factors' matrices.
        inst, _ = request.getfixturevalue(fixture)
        m = inst.num_vectors
        outers = inst.vectors[:, :, None] * inst.vectors[:, None, :]
        found = _symmetries(inst.vectors)
        gens = found["flips"] + found["permutations"]
        matrices = {sigma.tobytes(): q for q, sigma in gens + found["transpositions"]}
        for q, s in gens:
            for r, t in gens:
                matrices.setdefault(s[t].tobytes(), q @ r)
        perms = _cut_permutations(inst.vectors)
        assert len({g.tobytes() for g in perms}) == len(perms) == count
        for g in perms:
            assert (g != np.arange(m)).any()
            q = matrices[g.tobytes()]
            assert np.array_equal(outers[g], q @ outers @ q.T)

    def test_cut_permutations_drop_identity_and_repeats(self):
        # Two coordinates with the same sigma: their product is the identity
        # and each sigma is listed once.  Swapping the coordinates fixes
        # both vectors up to sign, so it is no generator.
        rows = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        found = _symmetries(rows)
        assert [(_flipped(q), g.tolist()) for q, g in found["flips"]] == [(0, [1, 0]), (1, [1, 0])]
        assert found["permutations"] == found["transpositions"] == []
        assert [g.tolist() for g in _cut_permutations(rows)] == [[1, 0]]


def _random_rows(draw, d, r):
    """gen_random(d, r) rows for a drawn seed.  A draw whose whitening misses
    the isotropy tolerance (DegenerateSample, as for gen_random(3, 3, seed=385))
    is rejected: these strategies test the cuts, not the generator."""
    try:
        return gen_random(d, r, seed=draw(st.integers(0, 2**16))).vectors
    except DegenerateSample:
        reject()


@st.composite
def flip_closed_families(draw):
    """gen_random(d, r) rows closed under the flips of a drawn coordinate set
    K, scaled by 2^(-|K|/2) to stay isotropic; m = r 2^|K| <= 16."""
    d = draw(st.integers(2, 5))
    most = min(d, (16 // d).bit_length() - 1)  # the largest |K| with d <= 16 / 2^|K|
    flips = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=most, unique=True))
    r = draw(st.integers(d, 16 >> len(flips)))
    rows = _random_rows(draw, d, r)
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
    found = _symmetries(inst.vectors)
    assert set(flips) <= {_flipped(q) for q, _ in found["flips"]}
    for q, sigma in _generators(found):
        _assert_is_symmetry(inst.vectors, q, sigma)
    _assert_matches_table(inst, branch_bound_w(inst), reference_table_w(inst))


@st.composite
def signed_cycle_families(draw):
    """gen_random(d, r) rows closed under a drawn signed cycle Q of 2 or 3
    coordinates: the rows Q^t V for t below Q's order (2, 3 or 4), scaled by
    order^-1/2 to stay isotropic; m = r order <= 16.  A 3-cycle takes an even
    number of minus signs, as its order would otherwise be 6."""
    c = draw(st.integers(2, 3))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=c, max_size=c))
    if c == 3:
        signs[2] = signs[0] * signs[1]
    order = c if np.prod(signs) > 0 else 2 * c
    d = draw(st.integers(c, min(5, 16 // order)))
    cycle = draw(st.permutations(range(d)))[:c]
    q = np.eye(d)
    q[:, cycle] = 0.0
    for i in range(c):  # Q e_cycle[i] = signs[i] e_cycle[i+1]
        q[cycle[(i + 1) % c], cycle[i]] = signs[i]
    rows = _random_rows(draw, d, draw(st.integers(d, 16 // order)))
    family = [rows]
    for _ in range(order - 1):
        family.append(family[-1] @ q.T)
    return Instance(np.concatenate(family) * order ** -0.5), q, order


@settings(max_examples=40, deadline=None, derandomize=True)
@given(signed_cycle_families())
def test_signed_permutation_cuts_match_unfiltered_table(case):
    # Every generator found is an exact symmetry; together they generate the
    # drawn one, whose sigma moves each row block to the next; and the cuts
    # decide as the eager search and keep w within the rounding bound of
    # the pass that evaluates every subset.
    inst, q, order = case
    m = inst.num_vectors
    found = _symmetries(inst.vectors)
    for r, sigma in _generators(found):
        _assert_is_symmetry(inst.vectors, r, sigma)
    drawn = (np.arange(m) + m // order) % m
    _assert_is_symmetry(inst.vectors, q, drawn)
    gens = [sigma for _, sigma in found["flips"] + found["permutations"]]
    assert drawn.tobytes() in _generated(gens, m)
    assert _bb_search(inst, None) == reference_eager_search(inst, None)
    _assert_matches_table(inst, branch_bound_w(inst), reference_table_w(inst))


@pytest.mark.parametrize("d, k", [(d, k) for d in range(1, 6) for k in (4, 6, 8) if k >= d])
def test_transposition_cuts_keep_planted_w(monkeypatch, d, k):
    # gen_planted repeats every vector, so the transpositions cut, and the
    # search pops fewer nodes with them; w stays within the rounding bound
    # of the pass that evaluates every subset (m = 2k <= 16).
    inst, _ = gen_planted(d, k, seed=20 + d)
    res = branch_bound_w(inst)
    _assert_matches_table(inst, res, reference_table_w(inst))
    monkeypatch.setattr(oracle_mod, "_symmetries", lambda vectors: NO_SYMMETRY)
    assert 0 < res.cut and res.nodes < branch_bound_w(inst).nodes


@pytest.mark.parametrize("seed", [0, 1])
def test_planted_m40_finishes_under_default_node_limit(seed):
    # gen_planted(5, 20), m = 40: uncut, the search passes 3 million nodes;
    # the transpositions bring it to about 112,000 and 59,000.
    inst, planted = gen_planted(5, 20, seed)
    res = branch_bound_w(inst, node_limit=2 ** (oracle_mod.DEFAULT_M_LIMIT + 1) - 1)
    assert res.nodes < 2 ** 17 and 0 < res.cut < res.nodes
    assert res.w_value <= 1e-12 and res.w_value == subset_distance(inst, res.argmin_subset)
    assert subset_distance(inst, planted) <= 1e-12


def _involution(rng, n):
    """A random involution of range(n): a random number of disjoint swaps."""
    g = np.arange(n)
    pairs = rng.permutation(n)[:2 * rng.integers(0, n // 2 + 1)].reshape(-1, 2)
    g[pairs[:, 0]], g[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    return g


@pytest.mark.parametrize("width", range(1, 121))
def test_lex_test_matches_python_compare(width):
    # The matrix-product lex test against list comparison, for prefixes of
    # up to 120 positions: one exact sum up to _PIECE = 52 positions, pieces
    # beyond.  Rows have width + 1 positions, and the last permutation's
    # prefix is all width of them, its last position swapped with the extra
    # one.  Half the rows are fixed by it but for one bit flipped late, so
    # that only the lowest weights decide them.
    rng = np.random.default_rng(width)
    perms = [_involution(rng, width + 1) for _ in range(2)]
    last = np.append(_involution(rng, width - 1), [width, width - 1])
    prefixes = [g[:rng.integers(1, width + 1)] for g in perms] + [last[:width]]
    rows = rng.random((40, width + 1)) < 0.5
    tied = rows[20:] | rows[20:, last]
    moved = np.flatnonzero(last != np.arange(width + 1))
    late = moved[np.argsort(np.minimum(moved, last[moved]))][-4:]
    tied[np.arange(len(tied)), rng.choice(late, len(tied))] ^= True
    rows[20:] = tied
    expected = [any(x[:len(p)] > [x[j] for j in p] for p in prefixes) for x in rows.tolist()]
    assert expected.count(True) not in (0, len(rows))
    lengths = np.array(list(map(len, prefixes)))
    weights = _lex_weights(np.array(perms + [last]), lengths, width + 1)
    assert _lex_greater(rows, weights).tolist() == expected


@pytest.mark.parametrize("fixture", ["fsat3_built", "funsat4_built"])
def test_flip_cuts_keep_uncut_w(request, monkeypatch, fixture):
    inst, _ = request.getfixturevalue(fixture)
    res = branch_bound_w(inst)
    assert 0 < res.cut < res.nodes and res.to_dict()["cut"] == res.cut
    # Cut nodes are popped nodes: node_limit counts them.
    assert branch_bound_w(inst, node_limit=res.nodes) == res
    with pytest.raises(TooLarge):
        branch_bound_w(inst, node_limit=res.nodes - 1)
    monkeypatch.setattr(oracle_mod, "_symmetries", lambda vectors: NO_SYMMETRY)
    uncut = branch_bound_w(inst)
    assert uncut.cut == 0 and uncut.nodes > res.nodes
    assert abs(res.w_value - uncut.w_value) <= 3 * rounding_bound(inst.vectors), (
        res.w_value, uncut.w_value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flip_closed_families())
def test_interval_bounds_decide_as_eager_search_with_flips(case):
    # The matrix-product cut test drops the rows the per-permutation gather of
    # reference_eager_search drops.
    inst, _ = case
    assert _bb_search(inst, None) == reference_eager_search(inst, None)


def test_pairwise_cuts_pop_fewer_nodes(monkeypatch, funsat4_built):
    # Products of two generators cut nodes no single generator cuts, and keep w.
    inst, _ = funsat4_built
    res = branch_bound_w(inst)
    monkeypatch.setattr(oracle_mod, "_cut_permutations", lambda vectors: [
        sigma for kind in ("flips", "permutations") for _, sigma in _symmetries(vectors)[kind]])
    generators_only = branch_bound_w(inst)
    assert generators_only.nodes > res.nodes
    assert abs(res.w_value - generators_only.w_value) <= 3 * rounding_bound(inst.vectors), (
        res.w_value, generators_only.w_value)


@pytest.mark.parametrize("fixture", ["fsat3_built", "funsat4_built"])
def test_lex_pieces_cut_as_one_sum(request, monkeypatch, fixture):
    # The gadgets' prefixes (up to 27 and 28 positions) in pieces of 5: the
    # first nonzero piece decides every cut as the one exact sum does.
    inst, _ = request.getfixturevalue(fixture)
    whole = _bb_search(inst, None)
    monkeypatch.setattr(oracle_mod, "_PIECE", 5)
    assert _bb_search(inst, None) == whole

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ks2 import (
    Instance,
    instance,
    prng,
    check_subset,
    gen_planted,
    gen_random,
    instance_from_json,
    instance_to_json,
    load_subset,
    save_subset,
    subset_distance,
    validate,
)
from ks2.errors import BadSubset, DegenerateSample, EmptyInstance, NotIsotropic
from ks2.reduction import assignment_to_subset

from conftest import random_subset
from reference_prng import ReferenceStream


class TestValidate:
    def test_axis_pairs_valid(self, axis_pairs_d2):
        assert axis_pairs_d2.validated
        assert axis_pairs_d2.alpha == pytest.approx(0.5)

    def test_single_vector_not_isotropic(self):
        with pytest.raises(NotIsotropic) as exc:
            validate(Instance(np.array([[1.0, 0.0]])))
        assert exc.value.deviation == pytest.approx(1.0)

    def test_reduction_fixture_valid(self, fsat3_built):
        inst, _ = fsat3_built
        assert inst.validated
        assert inst.alpha == 0.25

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstance):
            Instance(np.zeros((0, 3)))


class TestGrams:
    def test_masked_stack_equals_gram(self):
        # The solver gate reads eigenvalues off this stack; both the matrices
        # and their stacked eigvalsh must match the per-subset path bit for bit.
        for d, m, seed in [(2, 10, 5), (3, 40, 3), (5, 16, 0), (8, 20, 1)]:
            inst = gen_random(d, m, seed=seed)
            subsets = [[], list(range(m))] + [random_subset(m, seed * 1000 + k) for k in range(200)]
            members = np.zeros((len(subsets), m), dtype=bool)
            for row, s in zip(members, subsets):
                row[s] = True
            stack = inst.grams(members)
            eig = np.linalg.eigvalsh(stack)
            for s, a, w in zip(subsets, stack, eig):
                want = inst.gram(s).a
                assert np.array_equal(a, want)
                assert np.array_equal(w, np.linalg.eigvalsh(want))


class TestCheckSubset:
    def test_half_split_satisfies_exact_band(self, axis_pairs_d2):
        rep = check_subset(axis_pairs_d2, [0, 2], 0.1, 0.0)
        assert rep.satisfies_eq1 and rep.satisfies_eq2
        assert rep.lambda_min == pytest.approx(0.5, abs=1e-12)
        assert rep.lambda_max == pytest.approx(0.5, abs=1e-12)

    def test_empty_subset(self, axis_pairs_d2):
        rep = check_subset(axis_pairs_d2, [], 0.1, 0.0)
        assert (rep.lambda_min, rep.lambda_max) == (0.0, 0.0)
        assert not rep.satisfies_eq1 and not rep.satisfies_eq2

    def test_satisfying_encoding_sits_at_half(self, fsat3_built):
        inst, layout = fsat3_built
        s = assignment_to_subset(layout, (True, False, True))
        rep = check_subset(inst, s, 0.05, 0.0)
        assert rep.satisfies_eq1
        assert rep.lambda_min == pytest.approx(0.5, abs=1e-9)
        assert rep.lambda_max == pytest.approx(0.5, abs=1e-9)

    def test_bad_subset(self, axis_pairs_d2):
        with pytest.raises(BadSubset):
            check_subset(axis_pairs_d2, [0, 99], 0.1, 0.0)
        with pytest.raises(BadSubset):
            check_subset(axis_pairs_d2, [0, 0], 0.1, 0.0)

    @given(st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_complement_eigenvalues_sum_to_one(self, seed):
        inst = gen_random(4, 9, seed=seed % 17)
        s = random_subset(inst.num_vectors, seed)
        comp = [i for i in range(inst.num_vectors) if i not in set(s)]
        r1 = check_subset(inst, s, 0.1, 0.0)
        r2 = check_subset(inst, comp, 0.1, 0.0)
        assert r1.lambda_min + r2.lambda_max == pytest.approx(1.0, abs=1e-8)
        assert r1.lambda_max + r2.lambda_min == pytest.approx(1.0, abs=1e-8)

    @given(st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_eq1_flag_matches_distance_route(self, seed):
        inst = gen_random(3, 8, seed=seed % 13)
        s = random_subset(inst.num_vectors, seed, tag=6)
        c = 0.05 + (seed % 7) * 0.1
        rep = check_subset(inst, s, c, 0.0)
        w = subset_distance(inst, s)
        threshold = c * np.sqrt(inst.alpha)
        if abs(w - threshold) > 1e-9:  # exact flags may differ inside the borderline sliver
            assert rep.satisfies_eq1 == (w <= threshold)


class TestGenerators:
    def test_gen_random_isotropic(self):
        inst = gen_random(3, 10, seed=1)
        assert inst.validated
        assert inst.isotropy_deviation() <= 1e-9

    def test_gen_random_rank_deficient(self):
        with pytest.raises(DegenerateSample):
            gen_random(3, 2, seed=1)

    def test_gen_planted_rank_deficient(self):
        with pytest.raises(DegenerateSample):
            gen_planted(4, 2, seed=1)

    @pytest.mark.parametrize("d,seed", [(3, 385), (4, 1940)])
    def test_square_draw_missing_the_tolerance_is_whitened_again(self, d, seed):
        # One whitening of these m = d draws misses iso_tol = 1e-9 (1.17e-9
        # and 1.5e-8); a second one lands near 1e-15.
        once = instance._whiten(instance._gaussian_rows(
            prng.Stream(prng.derive_key(seed, prng.TAG_GEN_RANDOM, d, d)), d, d), 1.0)
        assert Instance(once).isotropy_deviation() > 1e-9
        inst = gen_random(d, d, seed=seed)
        assert inst.validated and inst.isotropy_deviation() <= 1e-12
        with pytest.raises(DegenerateSample):
            gen_random(d, d - 1, seed=seed)

    @pytest.mark.parametrize("d,m,seed", [(3, 3, 0), (3, 10, 1), (10, 4000, 3)])
    def test_draw_within_tolerance_is_whitened_once(self, d, m, seed):
        once = instance._whiten(instance._gaussian_rows(
            prng.Stream(prng.derive_key(seed, prng.TAG_GEN_RANDOM, d, m)), m, d), 1.0)
        assert gen_random(d, m, seed=seed).vectors.tobytes() == once.tobytes()

    def test_gen_random_one_dimensional(self):
        inst = gen_random(1, 4, seed=7)
        assert inst.dim == 1
        assert float((inst.vectors ** 2).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_gen_planted_half_subset(self):
        inst, planted = gen_planted(3, 6, seed=2)
        assert inst.num_vectors == 12
        rep = check_subset(inst, planted, 0.01, 0.0)
        assert rep.satisfies_eq1

    def test_gen_planted_small(self):
        inst, planted = gen_planted(2, 2, seed=3)
        assert inst.num_vectors == 4
        assert subset_distance(inst, planted) <= 1e-9

    def test_planted_complement_also_half(self):
        inst, planted = gen_planted(3, 5, seed=11)
        comp = [i for i in range(inst.num_vectors) if i not in set(planted)]
        assert check_subset(inst, comp, 0.01, 0.0).satisfies_eq1

    def test_bit_reproducible(self):
        a = gen_random(4, 9, seed=123)
        b = gen_random(4, 9, seed=123)
        assert np.array_equal(a.vectors, b.vectors)
        p1, s1 = gen_planted(3, 5, seed=9)
        p2, s2 = gen_planted(3, 5, seed=9)
        assert np.array_equal(p1.vectors, p2.vectors) and s1 == s2

    def test_seeds_differ(self):
        a = gen_random(4, 9, seed=1)
        b = gen_random(4, 9, seed=2)
        assert not np.array_equal(a.vectors, b.vectors)


def _reference_rows(stream, m, d):
    """The generators' Gaussian rows drawn one scalar normal at a time."""
    assert stream.counter == 0
    ref = ReferenceStream(stream.key)
    return np.array([ref.normals(d) for _ in range(m)], dtype=np.float64)


def _outcome(gen, *args):
    try:
        out = gen(*args)
    except (DegenerateSample, EmptyInstance) as exc:
        return type(exc), str(exc)
    inst, planted = out if isinstance(out, tuple) else (out, None)
    return inst.vectors.shape, inst.vectors.tobytes(), inst.meta, planted


_RANDOM_CASES = [(d, m, seed) for d in (1, 2, 3, 5, 10) for m in (d, d + 1, 2 * d + 3, 17)
                 for seed in (0, 1, 2)] + [(10, 4000, 3)]
_PLANTED_CASES = [(d, k, seed) for d in (1, 2, 3, 5, 10) for k in (d, d + 2)
                  for seed in (0, 1)] + [(5, 8, seed) for seed in range(4)]
_DEGENERATE_CASES = [(gen_random, 3, 2, 1), (gen_random, 5, 4, 0), (gen_planted, 4, 2, 1),
                     (gen_planted, 10, 9, 0), (gen_random, 0, 3, 1), (gen_random, 3, 0, 1),
                     (gen_planted, 0, 2, 1), (gen_planted, 2, 0, 1)]


class TestGeneratorsMatchScalarReference:
    """Vectorised normals leave every generated instance bit for bit as the
    scalar Box-Muller makes it; with odd d the carried sine crosses rows."""

    def _check(self, monkeypatch, gen, *args):
        got = _outcome(gen, *args)
        with monkeypatch.context() as mp:
            mp.setattr(instance, "_gaussian_rows", _reference_rows)
            assert got == _outcome(gen, *args)
        return got

    @pytest.mark.parametrize("d,m,seed", _RANDOM_CASES)
    def test_gen_random(self, monkeypatch, d, m, seed):
        got = self._check(monkeypatch, gen_random, d, m, seed)
        assert got[0] == (m, d) or got[0] is DegenerateSample

    @pytest.mark.parametrize("d,k,seed", _PLANTED_CASES)
    def test_gen_planted(self, monkeypatch, d, k, seed):
        got = self._check(monkeypatch, gen_planted, d, k, seed)
        assert got[0] == (2 * k, d) or got[0] is DegenerateSample

    @pytest.mark.parametrize("gen,d,m,seed", _DEGENERATE_CASES)
    def test_error_paths(self, monkeypatch, gen, d, m, seed):
        got = self._check(monkeypatch, gen, d, m, seed)
        assert got[0] is (EmptyInstance if min(d, m) < 1 else DegenerateSample)


class TestFileFormats:
    def test_instance_round_trip_is_lossless(self, tmp_path):
        inst = gen_random(3, 7, seed=5)
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert np.array_equal(inst.vectors, back.vectors)
        assert back.alpha == inst.alpha

    def test_reals_carry_17_significant_digits(self):
        inst = gen_random(2, 4, seed=8)
        text = instance_to_json(inst)
        token = format(float(inst.vectors[0, 0]), ".17g")
        assert token in text

    def test_alpha_never_read_from_file(self):
        text = '{"d": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "meta": {"alpha": 99.0}}'
        inst = instance_from_json(text)
        assert inst.alpha == 1.0

    def test_subset_file_sorted(self, tmp_path):
        p = tmp_path / "s.json"
        save_subset([3, 1, 2], p)
        assert load_subset(p) == [1, 2, 3]

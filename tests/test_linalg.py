import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ks2.errors import (
    DimMismatch,
    InvalidMatrix,
    NotPositiveDefinite,
    SingularSystem,
)
from ks2.instance import gen_random
from ks2.linalg import (
    SymMatrix,
    distance_half,
    eig_extremes,
    eig_extremes_stack,
    inv_sqrt,
    psd_sandwich_check,
    spd_solve,
    spd_solve_stack,
    spectral_distance_half,
)
from ks2.reduction import F_SAT3, ks_form_to_instance

from conftest import random_spd, random_symmetric
from reference_sparsifier import scipy_spd_solve_stack


class TestSymMatrix:
    def test_from_array_symmetrizes_exactly(self):
        m = SymMatrix.from_array([[1.0, 2.0], [2.5, 3.0]])
        assert np.array_equal(m.a, m.a.T)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix.from_array([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix.from_array(np.zeros((2, 3)))


class TestEigExtremes:
    def test_identity(self):
        assert eig_extremes(SymMatrix.identity(3)) == (1.0, 1.0)

    def test_diagonal(self):
        lo, hi = eig_extremes(SymMatrix.diagonal([0.25, 0.75]))
        assert lo == pytest.approx(0.25, abs=1e-10)
        assert hi == pytest.approx(0.75, abs=1e-10)

    def test_full_reduction_gram_is_identity(self):
        # Direct summation oracle: build the moment matrix one outer product
        # at a time and check both extremes hit 1.
        inst, _ = ks_form_to_instance(F_SAT3)
        acc = np.zeros((inst.dim, inst.dim))
        for v in inst.vectors:
            acc += np.outer(v, v)
        lo, hi = eig_extremes(SymMatrix.from_array(acc))
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_diagonal_extremes_exact(self, seed):
        s = np.asarray(random_symmetric(6, seed).diagonal())
        lo, hi = eig_extremes(SymMatrix.diagonal(s))
        assert abs(lo - s.min()) <= 1e-10 * max(1.0, np.abs(s).max())
        assert abs(hi - s.max()) <= 1e-10 * max(1.0, np.abs(s).max())

    def test_stack_matches_per_matrix_bit_for_bit(self):
        inst = gen_random(5, 12, seed=4)
        members = np.random.default_rng(4).random((64, 12)) < 0.5
        stack = inst.grams(members)
        lo, hi = eig_extremes_stack(stack)
        dist = distance_half(lo, hi)
        for j, a in enumerate(stack):
            w = np.linalg.eigvalsh(a)
            assert (lo[j], hi[j]) == (w[0], w[-1])
            assert dist[j] == max(w[-1] - 0.5, 0.5 - w[0])


class TestSpdSolve:
    def test_zero_matrix_scaled_shift(self):
        w = spd_solve(SymMatrix.zeros(2), 0.5, np.array([1.0, 0.0]))
        assert w == pytest.approx([2.0, 0.0])

    def test_diagonal(self):
        w = spd_solve(SymMatrix.diagonal([1.0, 3.0]), 1.0, np.array([2.0, 4.0]))
        assert w == pytest.approx([1.0, 1.0])

    def test_rank_one_plus_shift(self):
        m = SymMatrix.from_array(np.outer([1.0, 0.0], [1.0, 0.0]))
        w = spd_solve(m, 0.1, np.array([1.0, 1.0]))
        assert w == pytest.approx([1.0 / 1.1, 10.0], rel=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularSystem):
            spd_solve(SymMatrix.zeros(3), 0.0, np.ones(3))

    def test_residual_sweep(self):
        # 1000 seeded PSD systems, d <= 20: relative residual within 1e-9.
        count = 0
        for seed in range(250):
            for d in (2, 5, 11, 20):
                m = SymMatrix.from_array(random_spd(d, seed * 7 + d))
                s = np.linalg.norm(m.a) * 1e-3 + 1e-6
                v = np.asarray(random_symmetric(d, seed + d)[0])
                w = spd_solve(m, s, v)
                res = np.linalg.norm((m.a + s * np.eye(d)) @ w - v)
                assert res <= 1e-9 * max(np.linalg.norm(v), 1e-30)
                count += 1
        assert count == 1000


def _systems(d, seed):
    """(M, shift) pairs: random SPD, rank-deficient plus shift, shift-dominated."""
    rng = np.random.default_rng([seed, d])
    low = rng.standard_normal((d, max(1, d // 3)))
    yield random_spd(d, seed), 1e-3
    yield low @ low.T, 0.05
    yield 1e-4 * random_spd(d, seed, ridge=0.0), 1e3


class TestSpdSolveStack:
    def test_bit_identical_to_spd_solve(self):
        # Zero matrices included: the solver's first level holds B = 0.
        for d in (2, 3, 5, 10):
            stack = np.array([random_spd(d, seed) * (seed % 3) for seed in range(60)])
            v = random_symmetric(d, d)[0]
            got = spd_solve_stack(stack, 0.03, v)
            quads = np.vecdot(v, got)
            for a, w, q in zip(stack, got, quads):
                want = spd_solve(SymMatrix(a), 0.03, v)
                assert np.array_equal(w, want)
                assert q == float(v @ want)

    def test_bit_identical_to_scipy_solve(self):
        for d in range(2, 21):
            for seed in range(4):
                v = random_symmetric(d, seed)[0]
                for m, shift in _systems(d, seed):
                    got = spd_solve_stack(m, shift, v)
                    assert np.array_equal(got, scipy_spd_solve_stack(m, shift, v)), (d, seed)

    @pytest.mark.parametrize("lead", [(), (0,), (7,), (2, 3)], ids=["single", "empty", "L", "a-b"])
    def test_stack_shapes(self, lead):
        d = 4
        stack = np.array([random_spd(d, seed) for seed in range(math.prod(lead))])
        stack = stack.reshape(lead + (d, d))
        v = random_symmetric(d, 1)[0]
        got = spd_solve_stack(stack, 0.2, v)
        assert got.shape == lead + (d,)
        for j in np.ndindex(lead):
            assert np.array_equal(got[j], scipy_spd_solve_stack(stack[j], 0.2, v))

    def test_failed_factorization_raises(self):
        stack = np.array([np.eye(3), -np.eye(3)])
        with pytest.raises(SingularSystem):
            spd_solve_stack(stack, 0.0, np.ones(3))
        with pytest.raises(SingularSystem):
            spd_solve_stack(-np.eye(3), 0.5, np.ones(3))
        with pytest.raises(SingularSystem):
            spd_solve_stack(np.zeros((2, 2, 3, 3)), 0.0, np.ones(3))


class TestInvSqrt:
    def test_scaled_identity(self):
        n = inv_sqrt(SymMatrix.from_array(4.0 * np.eye(2)))
        assert n.a == pytest.approx(0.5 * np.eye(2))

    def test_diagonal(self):
        n = inv_sqrt(SymMatrix.diagonal([1.0, 4.0, 9.0]))
        assert n.a == pytest.approx(np.diag([1.0, 0.5, 1.0 / 3.0]))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt(SymMatrix.zeros(2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_whitening_residual(self, seed):
        d = 5 + seed % 16  # up to d = 20
        m = SymMatrix.from_array(random_spd(d, seed))
        n = inv_sqrt(m)
        assert np.array_equal(n.a, n.a.T)
        assert np.linalg.norm(n.a @ m.a @ n.a - np.eye(d), 2) <= 1e-9


class TestPsdSandwich:
    def test_equal_identity(self):
        eye = SymMatrix.identity(3)
        assert psd_sandwich_check(eye, eye, 0.0, 0.0)

    def test_double_violates(self):
        eye = SymMatrix.identity(2)
        two = SymMatrix.from_array(2.0 * np.eye(2))
        assert not psd_sandwich_check(eye, two, 0.5, 0.0)

    def test_slack_absorbs(self):
        eye = SymMatrix.identity(2)
        b = SymMatrix.from_array(1.4 * np.eye(2))
        assert psd_sandwich_check(eye, b, 0.25, 0.2)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            psd_sandwich_check(SymMatrix.identity(2), SymMatrix.identity(3), 0.1, 0.1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reflexive(self, seed):
        a = SymMatrix.from_array(random_spd(4, seed, ridge=0.0))
        assert psd_sandwich_check(a, a, 0.0, 0.0)


class TestSpectralDistanceHalf:
    def test_half_identity(self):
        m = SymMatrix.from_array(0.5 * np.eye(4))
        assert spectral_distance_half(m) == 0.0

    def test_zero_matrix(self):
        assert spectral_distance_half(SymMatrix.zeros(3)) == 0.5

    def test_diagonal(self):
        assert spectral_distance_half(SymMatrix.diagonal([0.25, 0.75])) == pytest.approx(0.25)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_complement_symmetry(self, seed):
        m = random_symmetric(5, seed)
        a = SymMatrix.from_array(m)
        b = SymMatrix.from_array(np.eye(5) - m)
        assert spectral_distance_half(a) == pytest.approx(spectral_distance_half(b), abs=1e-12)

"""Shared fixtures: small hand-built instances and seeded generators."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from ks2 import CnfFormula, F_SAT3, F_UNSAT4, Instance, ks_form_to_instance, prng, validate
from ks2.prng import Stream, derive_key

RHALF = 1.0 / np.sqrt(2.0)


@pytest.fixture
def axis_pairs_d2():
    """Two copies of each scaled axis vector in d=2; isotropic, alpha = 1/2."""
    rows = np.array([[RHALF, 0], [RHALF, 0], [0, RHALF], [0, RHALF]])
    return validate(Instance(rows))


@pytest.fixture
def axis_pairs_d3():
    """Three axis pairs in d=3, each scaled by 1/sqrt(2)."""
    rows = np.zeros((6, 3))
    for ax in range(3):
        rows[2 * ax, ax] = RHALF
        rows[2 * ax + 1, ax] = RHALF
    return validate(Instance(rows))


@pytest.fixture
def dyadic_axes_d3():
    """Four copies of e_i/2 per axis: every subset sum is exact in binary."""
    rows = np.zeros((12, 3))
    for ax in range(3):
        for j in range(4):
            rows[4 * ax + j, ax] = 0.5
    return validate(Instance(rows))


def stress_instance(pairs_per_axis: int = 2) -> Instance:
    """Isotropic d=3 family whose third axis is a single unit vector.

    Any subset puts quadratic form 0 or 1 on that axis, so no subset can sit
    inside a band strictly between 0 and 1: the solver must report not-found.
    """
    k = 2 * pairs_per_axis
    scale = 1.0 / np.sqrt(k)
    rows = np.zeros((2 * k + 1, 3))
    for j in range(k):
        rows[j, 0] = scale
        rows[k + j, 1] = scale
    rows[2 * k, 2] = 1.0
    return validate(Instance(rows))


def bound_survivors(inst: Instance, lo: Fraction, hi: Fraction) -> set:
    """Final level of a forced-sampling solve that the completion bound leaves, exactly.

    The instance must be axis-aligned, so every A_S is diagonal and its
    eigenvalues are its diagonal sums, computed here as Fractions.  A prefix
    S of {0, ..., i-1} is ruled out at level i when max diag A_S > hi or
    min diag A_{S + {i, ..., m-1}} < lo; every other prefix is extended both
    ways.  The final level is not pruned.  Every compared value must lie at
    least 1e-6 from lo and hi, so that rounding and the solver's slack cannot
    change a decision.
    """
    m, d = inst.vectors.shape
    axes = [np.flatnonzero(row) for row in inst.vectors]
    assert all(len(a) == 1 for a in axes), "instance is not axis-aligned"
    sq = [(int(a[0]), Fraction(float(row[a[0]])) ** 2) for a, row in zip(axes, inst.vectors)]

    def diag(subset):
        out = [Fraction(0)] * d
        for k in subset:
            out[sq[k][0]] += sq[k][1]
        return out

    def check(value, bound):
        assert abs(value - bound) >= Fraction(1, 10**6), (value, bound)
        return value

    level = [()]
    for i in range(m):
        level = [s for s in level
                 if check(max(diag(s)), hi) <= hi
                 and check(min(diag(s + tuple(range(i, m)))), lo) >= lo]
        level = [s + extra for s in level for extra in ((), (i,))]
    return {frozenset(s) for s in level}


@pytest.fixture
def stress_notfound():
    return stress_instance(2)


@pytest.fixture
def forced_sampling(monkeypatch):
    """Every uniform draw of solve() reads 0, so each path keeps every vector with p > 0.

    This is the brute-force equivalence harness: with an inactive size
    filter the final level then holds every subset as a representative.
    """
    monkeypatch.setattr(prng, "first_uniforms", lambda seed, path, last: np.zeros(len(last)))


@pytest.fixture(scope="session")
def fsat3_built():
    return ks_form_to_instance(F_SAT3)


@pytest.fixture(scope="session")
def funsat4_built():
    return ks_form_to_instance(F_UNSAT4)


def random_3cnf(seed: int, max_vars: int = 4, max_clauses: int = 4) -> CnfFormula:
    """Seeded random 3-CNF with distinct variables inside each clause."""
    s = Stream(derive_key(seed, 99))
    nv = 3 + (s.next_u64() % max(1, max_vars - 2))
    nc = 1 + (s.next_u64() % max_clauses)
    clauses = []
    for _ in range(nc):
        vs: list[int] = []
        while len(vs) < 3:
            v = 1 + (s.next_u64() % nv)
            if v not in vs:
                vs.append(int(v))
        clauses.append(tuple(v if s.uniform() < 0.5 else -v for v in vs))
    return CnfFormula(int(nv), tuple(clauses))


def random_subset(m: int, seed: int, tag: int = 4) -> list[int]:
    """Uniform random subset of range(m), seeded."""
    s = Stream(derive_key(seed, tag))
    return [i for i in range(m) if s.uniform() < 0.5]


def random_symmetric(d: int, seed: int) -> np.ndarray:
    s = Stream(derive_key(seed, 50, d))
    a = s.normals(d * d).reshape(d, d)
    return 0.5 * (a + a.T)


def random_spd(d: int, seed: int, ridge: float = 0.1) -> np.ndarray:
    s = Stream(derive_key(seed, 51, d))
    a = s.normals(d * d).reshape(d, d)
    return a @ a.T + ridge * np.eye(d)


def random_rotation(d: int, seed: int) -> np.ndarray:
    """Seeded orthogonal matrix via QR with a sign-fixed R diagonal."""
    s = Stream(derive_key(seed, 52, d))
    a = s.normals(d * d).reshape(d, d)
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


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

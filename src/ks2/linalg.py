"""Dense symmetric-matrix kernels for small d (a few hundred at most).

Everything here is a thin, contract-checked layer over LAPACK (via numpy,
and SciPy for the shifted solves): eigenvalue extremes, shifted SPD solves
through Cholesky, inverse square roots, and the two order comparisons the
rest of the package needs.
Matrices are wrapped in :class:`SymMatrix`, which guarantees exact symmetry
and finite entries at construction time.

Shifted SPD solves call LAPACK ``dposv`` (Cholesky factor and solve in one
routine) directly, once per matrix.  The systems are d x d with d of ten or
so, where ``scipy.linalg.solve(..., assume_a="pos")`` spends about ten times
the LAPACK work on argument checks and a condition estimate.  ``dposv`` on
its default upper triangle gives the same bits as that call; on the lower
triangle it does not.  The condition estimate only fed a warning, and the
sparsifier's shifted matrices have every eigenvalue at least delta/mu > 0.

Only the sampled step makes shifted solves, so SciPy loads at the first one
(``_posv`` then binds ``dposv`` to a module-level name, one global lookup
per later solve), not at import.  The exact gate, the oracle and the
reduction never load it: a process that only runs them peaks about 22 MB
lower (about 39.6 MB against 61.4 MB on the benchmark's solve-planted
workload), and ``import ks2`` in a fresh interpreter takes about 0.1 s
against 0.38 s.

The sparsifier makes one such solve per observed vector, where numpy's call
overhead, not the LAPACK work, sets the cost.  So ``spd_solve_stack`` adds a
read-only shift * I kept in a small cache per (d, shift) instead of building
``np.eye`` per call (``psd_sandwich_check`` takes its delta * I from the same
cache), and sends a single matrix straight to ``dposv``;
``SymMatrix.add_outer`` forms v v^T as ``v[:, None] * v``, the product
``np.outer`` computes, without its wrapper.  Both give the bits of the plain
calls.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, InvalidMatrix, NotPositiveDefinite, SingularSystem

PSD_SLACK = 1e-9   # slack allowed in PSD-order comparisons
SPD_FLOOR = 1e-12  # smallest eigenvalue accepted as positive definite


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric d x d matrix; entries(i,j) == entries(j,i) exactly.

    Build through from_array, which checks finiteness and enforces exact
    symmetry.  Direct construction is reserved for internal callers that
    already guarantee a symmetric array (sums of outer products, etc.).
    """

    a: np.ndarray

    def __post_init__(self):
        a = self.a
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def from_array(arr, symmetrize: bool = True) -> "SymMatrix":
        """Wrap an array, forcing exact symmetry via (A + A^T) / 2."""
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidMatrix("matrix has non-finite entries")
        if symmetrize:
            a = 0.5 * (a + a.T)
        elif not np.array_equal(a, a.T):
            raise InvalidMatrix("matrix is not exactly symmetric")
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        return SymMatrix(a)

    @staticmethod
    def zeros(d: int) -> "SymMatrix":
        return SymMatrix.from_array(np.zeros((d, d)))

    @staticmethod
    def identity(d: int) -> "SymMatrix":
        return SymMatrix.from_array(np.eye(d))

    def add_outer(self, v: np.ndarray, weight: float = 1.0) -> "SymMatrix":
        """Return self + weight * v v^T (exactly symmetric by construction).

        v[:, None] * v is the product np.outer forms, without its call overhead.
        """
        a = self.a + weight * (v[:, None] * v)
        a.flags.writeable = False
        return SymMatrix(a)


def eig_extremes_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of every symmetric matrix of a (..., d, d) stack.

    The one eigensolve behind every band test: a single eigvalsh call over
    the whole stack, whose values equal the per-matrix call bit for bit.
    """
    w = np.linalg.eigvalsh(stack)
    return w[..., 0], w[..., -1]


def rounding_eta(vectors: np.ndarray) -> float:
    """eta = (m + 64 d^2 + 2) 2^-53 (2T + 1) of (m, d) rows, T the computed sum
    of squares of their entries: the most by which an eigenvalue that
    eig_extremes_stack computes for a summed subset of the rows' outer
    products, or that value less a centre c with |c| <= 2, errs (ks2.oracle
    docstring, Rounding).  inf once 2T + 1 overflows."""
    m, d = vectors.shape
    return (m + 64 * d * d + 2) * 2.0 ** -53 * (2 * float(np.sum(vectors * vectors)) + 1)


def distance_half(lo, hi):
    """||M - I/2|| = max(lambda_max - 1/2, 1/2 - lambda_min) from M's extremes, elementwise."""
    return np.maximum(hi - 0.5, 0.5 - lo)


def spd_solve(m: SymMatrix, shift: float, v: np.ndarray) -> np.ndarray:
    """Solve (M + shift * I) w = v by Cholesky factorization.

    M must be PSD with shift > 0, or positive definite with shift = 0;
    a failed factorization raises SingularSystem.
    """
    if shift < 0:
        raise SingularSystem(f"negative shift {shift}")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.dim,):
        raise DimMismatch(f"vector length {v.shape} vs matrix dim {m.dim}")
    if not np.isfinite(v).all():
        raise InvalidMatrix("right-hand side has non-finite entries")
    return spd_solve_stack(m.a, float(shift), v)


@lru_cache(maxsize=16)
def _scaled_identity(d: int, s: float) -> np.ndarray:
    """s * I, read-only: built once per (d, s) and shared, not once per call."""
    eye = s * np.eye(d)
    eye.flags.writeable = False
    return eye


def spd_solve_stack(stack: np.ndarray, shift: float, v: np.ndarray) -> np.ndarray:
    """Solve (M + shift * I) w = v for every matrix M of a (..., d, d) stack.

    Returns the (..., d) solutions, each bit-identical to the solve on its
    matrix alone; a failed factorization of any matrix raises SingularSystem.
    A single (d, d) matrix goes straight to one dposv call.
    """
    d = stack.shape[-1]
    shifted = stack + _scaled_identity(d, shift)
    if stack.ndim == 2:
        return _posv(shifted, v)
    return np.array([_posv(m, v) for m in shifted.reshape(-1, d, d)]).reshape(shifted.shape[:-1])


_dposv = None  # scipy.linalg.lapack.dposv, bound at the first shifted solve


def _posv(shifted: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve one SPD system; LAPACK's info > 0 means a non-positive pivot."""
    global _dposv
    if _dposv is None:
        from scipy.linalg.lapack import dposv as _dposv
    _, x, info = _dposv(shifted, v)
    if info > 0:
        raise SingularSystem(f"Cholesky failed: leading minor {info} is not positive definite")
    return x


def inv_sqrt(m: SymMatrix) -> SymMatrix:
    """Inverse square root N of an SPD matrix, so that N M N = I."""
    w, q = np.linalg.eigh(m.a)
    if w[0] <= SPD_FLOOR:
        raise NotPositiveDefinite(f"lambda_min = {w[0]:.3e} <= {SPD_FLOOR:.0e}")
    n = (q / np.sqrt(w)) @ q.T
    return SymMatrix.from_array(n)


def psd_sandwich_check(a: SymMatrix, b: SymMatrix, mu: float, delta: float) -> bool:
    """True iff (1 - mu) A - delta I <= B <= (1 + mu) A + delta I in PSD order.

    Each side is checked through the smallest eigenvalue of the difference,
    with slack PSD_SLACK; both sides go to one stacked eigensolve.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} vs {b.dim}")
    if not (0 <= mu < 1):
        raise InvalidMatrix(f"mu = {mu} outside [0, 1)")
    if delta < 0:
        raise InvalidMatrix(f"delta = {delta} negative")
    eye = _scaled_identity(a.dim, float(delta))
    sides = np.array([b.a - (1.0 - mu) * a.a + eye, (1.0 + mu) * a.a + eye - b.a])
    lows = eig_extremes_stack(0.5 * (sides + sides.transpose(0, 2, 1)))[0]
    return bool((lows >= -PSD_SLACK).all())

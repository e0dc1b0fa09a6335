"""Online row-sampling spectral sparsifier state machine.

A state holds the running weighted sum B of sampled rank-1 terms together
with a ledger of what was sampled at which weight.  Vectors arrive one at a
time; each is kept with probability

    p = min(b * (1 + mu) * v^T (B + (delta/mu) I)^{-1} v, 1),  b = 8 ln(d) / mu^2,

and on a keep, B gains (1/p) v v^T.  With these weights B stays within
(1 +- mu) of the true sum, up to a delta * I additive slack, with probability
at least 1 - 1/d.  Randomness is injected by the caller as a uniform draw u,
so a fixed (state, idx, v, u) is fully deterministic and replayable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import prng
from .errors import BadParams, DegenerateDimension, InvalidVector
from .linalg import SymMatrix, spd_solve_stack

# Root value for the incremental ledger hash of an empty ledger.
EMPTY_LEDGER_HASH = prng.mix64(0x4B53325F4C454447)


@dataclass(frozen=True)
class SparsifierState:
    """Immutable sampler state: running sum B, its ledger, and (mu, delta).

    ledger is a tuple of (vector index, weight = 1/p) pairs in sampling
    order; ledger_hash folds the same sequence into 64 bits so that solver
    paths can be keyed in O(1).
    """

    b: SymMatrix
    ledger: tuple[tuple[int, float], ...]
    mu: float
    delta: float
    ledger_hash: int = EMPTY_LEDGER_HASH

    @property
    def dim(self) -> int:
        return self.b.dim

    @property
    def shift(self) -> float:
        """delta / mu, the ridge added before inverting B."""
        return self.delta / self.mu

    @property
    def sample_count(self) -> int:
        return len(self.ledger)


def new_state(d: int, mu: float, delta: float) -> SparsifierState:
    """Fresh state with B = 0 and an empty ledger."""
    if d < 1:
        raise BadParams(f"d must be >= 1, got {d}")
    if not (0 < mu <= 1):
        raise BadParams(f"mu must be in (0, 1], got {mu}")
    if not delta > 0:
        raise BadParams(f"delta must be positive, got {delta}")
    return SparsifierState(SymMatrix.zeros(d), (), float(mu), float(delta))


def _check_vector(state: SparsifierState, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (state.dim,):
        raise InvalidVector(f"vector shape {v.shape} vs dim {state.dim}")
    if not np.isfinite(v).all():
        raise InvalidVector("vector has non-finite entries")
    return v


def sample_probability(state: SparsifierState, v) -> float:
    """min(b (1 + mu) v^T (B + (delta/mu) I)^{-1} v, 1) with b = 8 ln(d)/mu^2."""
    v = _check_vector(state, v)
    return float(stack_probabilities(state.b.a[None], state.mu, state.shift, v)[0])


def stack_probabilities(sums: np.ndarray, mu: float, shift: float, v: np.ndarray) -> np.ndarray:
    """The sampling probability for every sum B of an (L, d, d) stack sharing mu and shift.

    One batched shifted solve; sample_probability is this on a stack of one.
    Raises on d = 1 only when some probability is asked for.
    """
    d = sums.shape[-1]
    if d < 2 and len(sums):
        raise DegenerateDimension("sampling budget b = 8 ln(d)/mu^2 vanishes for d = 1")
    b = 8.0 * math.log(d) / mu**2
    quad = np.vecdot(v, spd_solve_stack(sums, shift, v))
    return np.minimum(b * (1.0 + mu) * quad, 1.0)


def fold_ledger_hashes(hashes: np.ndarray, idx: int, weights: np.ndarray) -> np.ndarray:
    """The ledger_hash update of observe for one index, over uint64 hashes and weights."""
    h = prng.mix64_array(hashes ^ np.uint64(prng.mix64(idx)))
    return prng.mix64_array(h ^ prng.mix64_array(weights.view(np.uint64)))


def observe(state: SparsifierState, idx: int, v, u: float) -> tuple[SparsifierState, bool]:
    """Feed one vector; keep it iff u <= p and p > 0.

    Returns (new state, sampled flag).  On a keep the new state has
    B += (1/p) v v^T and the ledger gains (idx, 1/p); otherwise the input
    state is returned unchanged (states are immutable, so sharing is safe).
    """
    if not (0.0 <= u <= 1.0):
        raise BadParams(f"u must be in [0, 1], got {u}")
    p = sample_probability(state, v)
    if p <= 0.0 or u > p:
        return state, False
    v = np.asarray(v, dtype=np.float64)
    weight = 1.0 / p
    new_b = state.b.add_outer(v, weight)
    h = prng.mix64(state.ledger_hash ^ prng.mix64(idx))
    h = prng.mix64(h ^ prng.mix64(prng.float_bits(weight)))
    return (
        SparsifierState(new_b, state.ledger + ((idx, weight),), state.mu, state.delta, h),
        True,
    )


def recompute_sum(state: SparsifierState, vectors: np.ndarray) -> SymMatrix:
    """Rebuild B from the ledger against the instance's vectors (audit path)."""
    acc = np.zeros((state.dim, state.dim))
    for idx, weight in state.ledger:
        v = vectors[idx]
        acc += weight * np.outer(v, v)
    return SymMatrix.from_array(acc)

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
from dataclasses import dataclass, field

import numpy as np

from . import prng
from .errors import BadParams, DegenerateDimension, InvalidVector
from .linalg import SymMatrix, spd_solve_stack

# Root value for the incremental ledger hash of an empty ledger.
EMPTY_LEDGER_HASH = prng.mix64(0x4B53325F4C454447)


@dataclass(frozen=True)
class SparsifierState:
    """Immutable sampler state: running sum B, its ledger, and (mu, delta).

    The ledger is stored as a chain of (previous chain, vector index,
    weight = 1/p) links, newest first, so that a keep shares its parent's
    chain instead of copying it; ledger_hash folds the same sequence into 64
    bits so that solver paths can be keyed in O(1).
    """

    b: SymMatrix
    mu: float
    delta: float
    ledger_hash: int = EMPTY_LEDGER_HASH
    sample_count: int = 0
    ledger_chain: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.b.dim

    @property
    def shift(self) -> float:
        """delta / mu, the ridge added before inverting B."""
        return self.delta / self.mu

    @property
    def ledger(self) -> tuple[tuple[int, float], ...]:
        """The (vector index, weight = 1/p) pairs in sampling order."""
        pairs = []
        link = self.ledger_chain
        while link is not None:
            link, idx, weight = link
            pairs.append((idx, weight))
        return tuple(reversed(pairs))


def new_state(d: int, mu: float, delta: float) -> SparsifierState:
    """Fresh state with B = 0 and an empty ledger."""
    if d < 1:
        raise BadParams(f"d must be >= 1, got {d}")
    if not (0 < mu <= 1):
        raise BadParams(f"mu must be in (0, 1], got {mu}")
    if not delta > 0:
        raise BadParams(f"delta must be positive, got {delta}")
    return SparsifierState(SymMatrix.zeros(d), float(mu), float(delta))


def _check_vector(state: SparsifierState, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (state.dim,):
        raise InvalidVector(f"vector shape {v.shape} vs dim {state.dim}")
    if not np.isfinite(v).all():
        raise InvalidVector("vector has non-finite entries")
    return v


def budget(d: int, mu: float) -> float:
    """b (1 + mu) with b = 8 ln(d)/mu^2: p is this times the quadratic form, capped at 1."""
    if d < 2:
        raise DegenerateDimension("sampling budget b = 8 ln(d)/mu^2 vanishes for d = 1")
    return 8.0 * math.log(d) / mu**2 * (1.0 + mu)


def sample_probability(state: SparsifierState, v) -> float:
    """min(b (1 + mu) v^T (B + (delta/mu) I)^{-1} v, 1) with b = 8 ln(d)/mu^2."""
    v = _check_vector(state, v)
    scale = budget(state.dim, state.mu)
    quad = np.vecdot(v, spd_solve_stack(state.b.a, state.shift, v))
    return min(scale * float(quad), 1.0)


def stack_probabilities(sums: np.ndarray, mu: float, shift: float, v: np.ndarray) -> np.ndarray:
    """The sampling probability for every sum B of an (L, d, d) stack sharing mu and shift.

    One shifted solve per sum, each equal bit for bit to sample_probability
    on that sum.  Raises on d = 1 only when some probability is asked for.
    """
    if not len(sums):
        return np.zeros(0)
    quad = np.vecdot(v, spd_solve_stack(sums, shift, v))
    return np.minimum(budget(sums.shape[-1], mu) * quad, 1.0)


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
    chain = (state.ledger_chain, idx, weight)
    return SparsifierState(new_b, state.mu, state.delta, h, state.sample_count + 1, chain), True


def recompute_sum(state: SparsifierState, vectors: np.ndarray) -> SymMatrix:
    """Rebuild B from the ledger against the instance's vectors (audit path)."""
    acc = np.zeros((state.dim, state.dim))
    for idx, weight in state.ledger:
        v = vectors[idx]
        acc += weight * np.outer(v, v)
    return SymMatrix.from_array(acc)

"""Reference for the shifted SPD solve and the observe step (test-only).

This is the sampling step as it was before shifted solves called LAPACK
``dposv`` directly: ``scipy.linalg.solve(..., assume_a="pos")`` on a stack
of one, and a ledger tuple copied on every keep.  The tests compare the
package against it bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from ks2 import prng
from ks2.sparsifier import EMPTY_LEDGER_HASH


def scipy_spd_solve_stack(stack: np.ndarray, shift: float, v: np.ndarray) -> np.ndarray:
    """Solve (M + shift * I) w = v for every M of a (..., d, d) stack through scipy."""
    shifted = stack + shift * np.eye(stack.shape[-1])
    return sla.solve(shifted, v, assume_a="pos", check_finite=False)


def reference_stream(vectors: np.ndarray, draws, mu: float, delta: float):
    """(B, ledger, ledger_hash) after observing every vector with its draw u."""
    d = vectors.shape[1]
    b = np.zeros((d, d))
    ledger: tuple = ()
    h = EMPTY_LEDGER_HASH
    budget = 8.0 * math.log(d) / mu**2
    for idx, (v, u) in enumerate(zip(vectors, draws)):
        quad = np.vecdot(v, scipy_spd_solve_stack(b[None], delta / mu, v))
        p = float(np.minimum(budget * (1.0 + mu) * quad, 1.0)[0])
        if p <= 0.0 or u > p:
            continue
        weight = 1.0 / p
        b = b + weight * np.outer(v, v)
        ledger = ledger + ((idx, weight),)
        h = prng.mix64(h ^ prng.mix64(idx))
        h = prng.mix64(h ^ prng.mix64(prng.float_bits(weight)))
    return b, ledger, h

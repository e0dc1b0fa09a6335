"""Ground-truth discrepancy by exhaustive subset enumeration.

W(inst) is the minimum over all 2^m subsets S of the worst-direction
deviation of A_S = sum_{i in S} v_i v_i^T from I/2.  Subset t is the
bitmask t.  Doubling builds two tables of subset sums, one for the first
_LOW_BITS vectors and one for the rest; chunk h, every low sum plus high
sum h, costs one broadcast add and one stacked eigensolve.  Each matrix is
a sum of at most m outer products, so no rounding drift builds up, and the
argmin is the earliest minimum in binary order.

A branch-and-bound variant prunes a partial choice over indices < i when
even the best completion cannot beat the incumbent: any completion A_S
satisfies P <= A_S <= P + R_i (P = partial sum, R_i = mass of undecided
vectors), so its deviation is at least
max(lambda_max(P) - 1/2, 1/2 - lambda_min(P + R_i), 0).  The search is
depth-first over blocks of up to _BLOCK nodes of one depth held as arrays:
a block costs one stacked eigensolve for its bounds and one for the
lambda_max of its include children, while exclude children keep their
parent's P and lambda_max.  Partial sums are built by the same elementwise
additions as a one-node-at-a-time search, and a stacked eigensolve equals
the per-matrix one bit for bit, so every bound and every leaf deviation is
the value that search computes; blocking changes only the visiting order,
the number of leaves evaluated and, among ties, the argmin.

Both modes report w = subset_distance(argmin), recomputed from scratch on
the returned subset, so w never carries accumulator rounding.  The two
modes return the same w bit for bit whenever they return the same argmin;
otherwise (ties, or minima within rounding of each other) their w values
differ by at most a few ulps.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import TooLarge
from .instance import Instance, subset_distance
from .linalg import distance_half, eig_extremes_stack

DEFAULT_M_LIMIT = 24
_LOW_BITS = 14  # vectors in the low table: 2^14 matrices per eigensolve
_BLOCK = 128  # nodes per branch-and-bound block


@dataclass(frozen=True)
class OracleResult:
    w_value: float
    argmin_subset: tuple[int, ...]
    subsets_examined: int
    feasible_eq1: Optional[bool] = None
    c: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "w": self.w_value,
            "subset": list(self.argmin_subset),
            "examined": self.subsets_examined,
        }
        if self.feasible_eq1 is not None:
            d["feasible_eq1"] = self.feasible_eq1
            d["c"] = self.c
        return d


def _subset_sums(outers: np.ndarray) -> np.ndarray:
    """Every subset sum of a (k, d, d) stack: row t sums the outers[j] with bit j of t set."""
    sums = np.zeros((1,) + outers.shape[1:])
    for outer in outers:
        sums = np.concatenate((sums, sums + outer))
    return sums


def brute_force_w(inst: Instance, m_limit: int = DEFAULT_M_LIMIT,
                  threads: int = 1) -> OracleResult:
    """Exact W by full enumeration of all 2^m subsets; threads maps the chunks over a pool."""
    m = inst.num_vectors
    if m > m_limit:
        raise TooLarge(f"m = {m} exceeds m_limit = {m_limit}")
    if m > DEFAULT_M_LIMIT:
        warnings.warn(f"enumerating 2^{m} subsets; this may take a while", RuntimeWarning)
    vectors = inst.vectors
    outers = vectors[:, :, None] * vectors[:, None, :]
    low = _subset_sums(outers[:_LOW_BITS])
    high = _subset_sums(outers[_LOW_BITS:])

    def chunk_min(h: int) -> tuple[float, int]:
        dev = distance_half(*eig_extremes_stack(low + high[h]))
        t = int(np.argmin(dev))
        return float(dev[t]), h * len(low) + t

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(chunk_min, range(len(high))))
    else:
        parts = [chunk_min(h) for h in range(len(high))]
    best = min(parts)[1]
    subset = tuple(j for j in range(m) if best >> j & 1)
    return OracleResult(subset_distance(inst, subset), subset, 1 << m)


def with_threshold(inst: Instance, res: OracleResult, c: float) -> OracleResult:
    """res with c set and feasible_eq1 = (w <= c*sqrt(alpha))."""
    feasible = res.w_value <= c * float(np.sqrt(inst.alpha))
    return replace(res, feasible_eq1=feasible, c=c)


def _bb_search(inst: Instance, node_limit: Optional[int]) -> tuple[float, tuple[int, ...], int]:
    """Blocked depth-first search: (minimum deviation found, its subset, leaves evaluated).

    A block is (depth i, partial sums P (L, d, d), membership (L, m),
    hi = lambda_max(P) (L,)); at depth m, hi is not used.
    """
    vectors = inst.vectors
    m, d = vectors.shape
    outers = vectors[:, :, None] * vectors[:, None, :]
    suffix = np.zeros((m + 1, d, d))
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + outers[i]

    best_w, best_row = np.inf, np.zeros(m, dtype=bool)
    leaves = nodes = 0
    root = np.zeros((1, d, d))
    stack = [(0, root, np.zeros((1, m), dtype=bool), eig_extremes_stack(root)[1])]
    while stack:
        i, p, member, hi = stack.pop()
        nodes += len(p)
        if node_limit is not None and nodes > node_limit:
            raise TooLarge(f"branch-and-bound exceeded node limit {node_limit}")
        if i == m:
            dev = distance_half(*eig_extremes_stack(p))
            t = int(np.argmin(dev))
            leaves += len(p)
            if dev[t] < best_w:
                best_w, best_row = float(dev[t]), member[t]
            continue
        lo = eig_extremes_stack(p + suffix[i])[0]
        keep = np.maximum(distance_half(lo, hi), 0.0) < best_w
        p, member, hi = p[keep], member[keep], hi[keep]
        p_in = p + outers[i]
        member_in = member.copy()
        member_in[:, i] = True
        # Leaves take their full spectrum, so only inner children need hi.
        hi_in = eig_extremes_stack(p_in)[1] if i + 1 < m else hi
        # Exclude children first, cut into blocks pushed so the first pops first.
        p, member, hi = (np.concatenate(pair) for pair in
                         ((p, p_in), (member, member_in), (hi, hi_in)))
        for s in reversed(range(0, len(p), _BLOCK)):
            stack.append((i + 1, p[s:s + _BLOCK], member[s:s + _BLOCK], hi[s:s + _BLOCK]))
    return best_w, tuple(np.flatnonzero(best_row).tolist()), leaves


def branch_bound_w(inst: Instance, node_limit: Optional[int] = None) -> OracleResult:
    """W by blocked depth-first search with completion-bound pruning.

    w is subset_distance(argmin), like brute_force_w's; subsets_examined
    counts evaluated leaves.  node_limit (popped nodes) raises TooLarge
    when exceeded.
    """
    _, subset, leaves = _bb_search(inst, node_limit)
    return OracleResult(subset_distance(inst, subset), subset, leaves)

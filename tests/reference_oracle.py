"""Unfiltered and one-subset-at-a-time references for ks2.oracle (test-only).

reference_table_w evaluates every subset with no bound at all: two tables of
subset sums built by doubling, one for the first low_bits vectors and one for
the rest, each chunk (the low table plus one high row) through one stacked
eigensolve; the earliest minimum in binary order wins.  The search's w must
lie within 3 * rounding_bound of its w.
reference_brute_force_w evaluates every subset, in binary order, through
the scalar eigenvalue kernel on a from-scratch sum; it audits the batched
subset-sum tables and is only sensible for small m.
reference_eager_search is ks2.oracle._bb_search as it was before its bounds
became intervals: every uncut node eigensolves its completion bound and every
kept node its include child's lambda_max, and the lex-leader cuts are tested
one permutation at a time by a gather of x o g.  It reads ks2.oracle._BLOCK
when called, so a test that patches the block size patches both searches,
and the tests require the whole (w, subset, leaves, nodes, cut) tuple of the
interval search to equal it.
reference_branch_bound_w is the branch-and-bound search one node per pop,
with two eigensolves per internal node, and the same lex-leader cuts, tested
node by node on the chosen indices.  The tests compare the blocked search's
minimum against it bit for bit.  Both cut by the permutations of
ks2.oracle._cut_permutations (the flips and signed coordinate permutations
of ks2.oracle._symmetries, every product of two of them, and the equal-row
transpositions), and both return the accumulated minimum, not the
from-scratch w that ks2.oracle reports.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ks2 import oracle as oracle_mod
from ks2.errors import TooLarge
from ks2.instance import Instance, subset_distance
from ks2.linalg import distance_half, eig_extremes_stack
from ks2.oracle import OracleResult, _cut_permutations

LOW_BITS = 14  # vectors in the low table: 2^14 matrices per chunk


def bits(t: int, m: int) -> tuple[int, ...]:
    """The subset that bitmask t encodes: index j is in it when bit j of t is set."""
    return tuple(j for j in range(m) if t >> j & 1)


def subset_sums(outers: np.ndarray) -> np.ndarray:
    """Every subset sum of a (k, ...) stack: row t sums the outers[j] with bit j of t set."""
    sums = np.zeros((1,) + outers.shape[1:])
    for outer in outers:
        sums = np.concatenate((sums, sums + outer))
    return sums


def _evaluated_all(w: float, subset: tuple[int, ...], m: int) -> OracleResult:
    """A result that evaluated all 2^m leaves, as if by popping every node of the full tree."""
    return OracleResult(w, subset, 1 << m, 1 << m, (2 << m) - 1, 0)


def rounding_bound(vectors: np.ndarray) -> float:
    """eps of the ks2.oracle docstring: the most by which a computed completion
    bound can exceed the computed deviation of a leaf below it.  Written out
    here rather than taken from ks2.linalg.rounding_eta, as a second copy."""
    m, d = vectors.shape
    return 2 * (m + 64 * d * d + 2) * 2.0 ** -53 * (2 * float(np.sum(vectors * vectors)) + 1)


def reference_table_w(inst: Instance, low_bits: int = LOW_BITS) -> OracleResult:
    """Every chunk low + high[h] eigensolved whole; the earliest minimum in binary order wins."""
    vectors = inst.vectors
    m = len(vectors)
    outers = vectors[:, :, None] * vectors[:, None, :]
    low = subset_sums(outers[:low_bits])
    high = subset_sums(outers[low_bits:])
    parts = []
    for h in range(len(high)):
        dev = distance_half(*eig_extremes_stack(low + high[h]))
        t = int(np.argmin(dev))
        parts.append((float(dev[t]), h * len(low) + t))
    subset = bits(min(parts)[1], m)
    return _evaluated_all(subset_distance(inst, subset), subset, m)


def reference_brute_force_w(inst: Instance) -> OracleResult:
    m = inst.num_vectors
    best_w, best_t = np.inf, 0
    for t in range(1 << m):
        w = subset_distance(inst, bits(t, m))
        if w < best_w:
            best_w, best_t = w, t
    return _evaluated_all(best_w, bits(best_t, m), m)


def reference_branch_bound_w(inst: Instance, node_limit: Optional[int] = None) -> OracleResult:
    """W by depth-first search with completion-bound pruning and symmetry cuts.

    eigensolved counts the evaluated leaves, nodes the popped nodes and cut
    the popped nodes the symmetry cuts drop.  node_limit raises TooLarge when
    nodes would exceed it.
    """
    vectors = inst.vectors
    m, d = vectors.shape
    outers = [np.outer(v, v) for v in vectors]
    suffix = [np.zeros((d, d)) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + outers[i]
    perms = [g.tolist() for g in _cut_permutations(vectors)]

    def lex_greater(i: int, chosen: tuple[int, ...]) -> bool:
        # Compare x with x o g position by position while both entries are
        # decided, i.e. j < i and g(j) < i.
        x = [j in chosen for j in range(i)]
        for g in perms:
            for j in range(i):
                if g[j] >= i:
                    break
                if x[j] != x[g[j]]:
                    if x[j]:
                        return True
                    break
        return False

    best_w = np.inf
    best_subset: tuple[int, ...] = ()
    leaves = nodes = cut = 0

    def deviation(a: np.ndarray) -> float:
        w = np.linalg.eigvalsh(a)
        return float(max(w[-1] - 0.5, 0.5 - w[0]))

    stack = [(0, np.zeros((d, d)), ())]
    while stack:
        i, partial, chosen = stack.pop()
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise TooLarge(f"branch-and-bound exceeded node limit {node_limit}")
        if lex_greater(i, chosen):
            cut += 1
            continue
        if i == m:
            leaves += 1
            w = deviation(partial)
            if w < best_w:
                best_w, best_subset = w, chosen
            continue
        hi = np.linalg.eigvalsh(partial)[-1]
        lo = np.linalg.eigvalsh(partial + suffix[i])[0]
        bound = max(hi - 0.5, 0.5 - lo, 0.0)
        if bound >= best_w:
            continue
        # Exclude branch explored first (pushed last).
        stack.append((i + 1, partial + outers[i], chosen + (i,)))
        stack.append((i + 1, partial, chosen))
    return OracleResult(best_w, best_subset, 1 << m, leaves, nodes, cut)


def _lex_greater(member: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """Rows x with x >_lex x o g on the first len(prefix) = L positions, prefix = g[:L]."""
    x, y = member[:, :len(prefix)], member[:, prefix]
    return (x & ~y)[np.arange(len(x)), np.argmax(x != y, axis=1)]


def reference_eager_search(inst: Instance, node_limit: Optional[int]
                           ) -> tuple[float, tuple[int, ...], int, int, int]:
    """Blocked depth-first search over the vectors in the order given:
    (minimum deviation found, its subset, leaves, popped nodes, nodes cut).

    A block is (depth i, partial sums P (L, d, d), membership (L, m),
    hi = lambda_max(P) (L,)); at depth m, hi is not used.
    """
    vectors = inst.vectors
    m, d = vectors.shape
    outers = vectors[:, :, None] * vectors[:, None, :]
    suffix = np.zeros((m + 1, d, d))
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + outers[i]
    # lex[i] holds g[:L] for each permutation whose decided prefix grows at
    # depth i: the first L positions j with j < i and g(j) < i.
    lex: list[list[np.ndarray]] = [[] for _ in range(m + 1)]
    for g in _cut_permutations(vectors):
        reach = np.maximum.accumulate(np.maximum(g, np.arange(m)))
        decided = np.searchsorted(reach, np.arange(m + 1))
        for i in np.flatnonzero(np.diff(decided)) + 1:
            lex[i].append(g[:decided[i]])

    best_w, best_row = np.inf, np.zeros(m, dtype=bool)
    leaves = nodes = cut = 0
    root = np.zeros((1, d, d))
    stack = [(0, root, np.zeros((1, m), dtype=bool), eig_extremes_stack(root)[1])]
    while stack:
        i, p, member, hi = stack.pop()
        nodes += len(p)
        if node_limit is not None and nodes > node_limit:
            raise TooLarge(f"branch-and-bound exceeded node limit {node_limit}")
        if lex[i]:
            keep = ~np.any([_lex_greater(member, s) for s in lex[i]], axis=0)
            cut += len(p) - int(np.count_nonzero(keep))
            p, member, hi = p[keep], member[keep], hi[keep]
            if not len(p):
                continue
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
        block = oracle_mod._BLOCK
        for s in reversed(range(0, len(p), block)):
            stack.append((i + 1, p[s:s + block], member[s:s + block], hi[s:s + block]))
    return best_w, tuple(np.flatnonzero(best_row).tolist()), leaves, nodes, cut

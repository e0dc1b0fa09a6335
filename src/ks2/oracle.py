"""Ground-truth discrepancy by exhaustive subset enumeration.

W(inst) is the minimum over all 2^m subsets S of the worst-direction
deviation dev(S) = ||A_S - I/2|| of A_S = sum_{i in S} v_i v_i^T.  Subset t
is the bitmask t.  Doubling builds two tables of subset sums, one for the
first _LOW_BITS vectors and one for the rest, each holding only the lower
triangles (what the eigensolve reads); chunk h is every low sum plus high
sum h.  Each matrix is a sum of at most m outer products, so no rounding
drift builds up, and the argmin is the earliest minimum in binary order.

Only the subsets that a cheap lower bound cannot rule out are eigensolved.
By Cauchy interlacing every principal submatrix B of a symmetric M has
lambda_min(M) <= lambda_min(B) <= lambda_max(B) <= lambda_max(M).  For the
2x2 submatrix B = [[a, b], [b, c]] on indices {i, j},
lambda_+-(B) = (a + c)/2 +- hypot((a - c)/2, b), so
    lb(M) = max over i > j of max(lambda_+ - 1/2, 1/2 - lambda_-) <= dev(M);
for d = 1 the single entry is the eigenvalue.  A chunk's pass computes lb for
all 2^14 rows from the table entries, sets the incumbent to the smaller of
the running minimum and the least dev among the _PROBES rows of smallest lb,
and eigensolves only the rows with lb - slack <= incumbent (none: the chunk
is skipped).

The slack bounds how far rounding can push the computed lb above the
computed dev of the same matrix M (the floating-point sum the eigensolve
receives).  Let u = 2^-53 and N >= ||M||_2.
  * The entries of M are floating-point sums of at most m products
    v_ki v_kj, so ||M||_2 <= || |M| ||_2 <= (1 + gamma_{m+1}) sum_k ||v_k||^2,
    and N = 2T bounds it, T the computed sum of squares of all entries.
  * Every 2x2 input has |a|, |b|, |c|, |lambda_+-| <= N.  The formula is
    seven correctly rounded operations (halving is exact); tracing them gives
    |computed lambda_+- - lambda_+-| <= 7uN, squares that underflow adding
    far less than u.
  * LAPACK's symmetric eigensolvers are backward stable: the computed
    eigenvalues are exact for some M + E with ||E||_2 <= p(d) u ||M||_2,
    p(d) modest (Householder tridiagonalization is the O(d^2) part; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 19.3 and
    LAPACK Users' Guide sec. 4.7).  We take p(d) = 64 d^2.  By Weyl's
    inequality each computed eigenvalue is within p(d) u N of the exact one.
  * Each subtraction of 1/2, two in lb and two in dev, errs by <= u (N + 1);
    max, min and the comparisons are exact.
So computed dev >= computed lb - (p(d) + 9) u (N + 1), and
slack = (64 d^2 + 16) u (2T + 1) covers it with room for the second-order
terms.  When 2T + 1 >= 1e150 the squares could overflow, so slack is inf
and every subset is eigensolved.  The survivors' matrices hold the same entries as the full chunk's,
and a stacked eigensolve equals the per-matrix one bit for bit, so every
subset whose dev equals the minimum w* passes (its lb - slack <= w* <=
incumbent) and gets the dev unfiltered enumeration gives it: w, argmin and
the 2^m subsets examined are those of the unfiltered pass.

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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import TooLarge
from .instance import Instance, subset_distance
from .linalg import distance_half, eig_extremes_stack

DEFAULT_M_LIMIT = 24
_LOW_BITS = 14  # vectors in the low table: 2^14 matrices per eigensolve
_BLOCK = 128  # nodes per branch-and-bound block
_UNIT_ROUNDOFF = 2.0 ** -53  # float64
# Rows of smallest lb eigensolved to seed each chunk's incumbent.  On
# gen_random(5, 20), seeds 1-10, 32 rather than 1 cut the most survivors of
# one chunk from 5,330 to 1,172 and the total from 55,361 to 35,877.
_PROBES = 32
# Survivors per stacked eigensolve.  A chunk can keep thousands of rows (7,750
# in one benchmark instance); batches keep the pass's peak memory at or
# below that of eigensolving whole chunks.
_SOLVE_BATCH = 2048


@dataclass(frozen=True)
class OracleResult:
    w_value: float
    argmin_subset: tuple[int, ...]
    subsets_examined: int
    feasible_eq1: Optional[bool] = None
    c: Optional[float] = None
    eigensolved: Optional[int] = None  # exhaustive: subsets that passed the prefilter
    nodes: Optional[int] = None  # branch-and-bound: popped nodes, as node_limit counts them

    def to_dict(self) -> dict:
        d = {
            "w": self.w_value,
            "subset": list(self.argmin_subset),
            "examined": self.subsets_examined,
        }
        for key in ("eigensolved", "nodes"):
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        if self.feasible_eq1 is not None:
            d["feasible_eq1"] = self.feasible_eq1
            d["c"] = self.c
        return d


def _subset_sums(outers: np.ndarray) -> np.ndarray:
    """Every subset sum of a (k, ...) stack: row t sums the outers[j] with bit j of t set."""
    sums = np.zeros((1,) + outers.shape[1:])
    for outer in outers:
        sums = np.concatenate((sums, sums + outer))
    return sums


def _interlacing_bound(low: np.ndarray, top: np.ndarray, pairs: np.ndarray,
                       work: np.ndarray) -> np.ndarray:
    """lb of each matrix M of one chunk, from M's 2x2 principal submatrices.

    Column l of low (n, L) plus top (n,) holds the lower triangle of M_l.  pairs
    (3, P) holds, for each pair i > j, the rows of M[i, i], M[j, j] and M[i, j].
    work is a (3, P, L) buffer: at L = 2^14, fresh temporaries would cost more
    in page faults than in arithmetic.
    """
    if not pairs.shape[1]:  # d = 1: the entry is the eigenvalue
        entry = low[0] + top[0]
        return distance_half(entry, entry)
    a, c, mid = work

    def gather(out, row):  # the chunk's entries in those rows, added as M itself adds them
        # The rows are in range; mode="clip" only skips numpy's buffered bounds check.
        np.take(low, row, axis=0, out=out, mode="clip")
        out += top[row][:, None]

    gather(a, pairs[0])
    gather(c, pairs[1])
    np.add(a, c, out=mid)
    mid /= 2
    np.subtract(a, c, out=a)
    a /= 2
    a *= a
    gather(c, pairs[2])
    c *= c
    a += c
    r = np.sqrt(a, out=a)  # hypot((a - c) / 2, b)
    hi = np.add(mid, r, out=c).max(axis=0)
    lo = np.subtract(mid, r, out=mid).min(axis=0)
    return distance_half(lo, hi)


def _lower_triangle(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols) of the n = d(d+1)/2 lower-triangle entries of a d x d matrix,
    and pairs (3, P): for each i > j, the positions of (i, i), (j, j), (i, j)."""
    rows, cols = np.tril_indices(d)
    at = np.zeros((d, d), dtype=np.intp)
    at[rows, cols] = np.arange(len(rows))
    strict = rows > cols
    return rows, cols, np.stack((at[rows, rows][strict], at[cols, cols][strict],
                                 np.flatnonzero(strict)))


def _prefilter_slack(vectors: np.ndarray) -> float:
    """Most by which a computed lb can exceed the computed dev (module docstring);
    inf, which rules nothing out, when squaring the entries could overflow."""
    d = vectors.shape[1]
    scale = 2 * float(np.sum(vectors * vectors)) + 1
    return (64 * d * d + 16) * _UNIT_ROUNDOFF * scale if scale < 1e150 else np.inf


def brute_force_w(inst: Instance, m_limit: int = DEFAULT_M_LIMIT,
                  threads: int = 1) -> OracleResult:
    """Exact W over all 2^m subsets, eigensolving only those the prefilter keeps.

    eigensolved counts the subsets that passed the interlacing prefilter.
    threads is ignored (the pass runs in the calling thread); it stays only
    because the benchmark's workloads pass threads=1.
    """
    vectors = inst.vectors
    m, d = vectors.shape
    if m > m_limit:
        raise TooLarge(f"m = {m} exceeds m_limit = {m_limit}")
    if m > DEFAULT_M_LIMIT:
        warnings.warn(f"enumerating 2^{m} subsets; this may take a while", RuntimeWarning)
    rows, cols, pairs = _lower_triangle(d)
    # Entry (rows[k], cols[k]) of every outer product, so the tables hold the
    # lower triangles of the subset sums, low transposed to (n, 2^14).
    packed = vectors[:, rows] * vectors[:, cols]
    low = np.ascontiguousarray(_subset_sums(packed[:_LOW_BITS]).T)
    high = _subset_sums(packed[_LOW_BITS:])
    chunk = low.shape[1]
    work = np.empty((3, pairs.shape[1], chunk))
    slack = _prefilter_slack(vectors)

    def devs(top: np.ndarray, idx: np.ndarray) -> np.ndarray:
        stack = np.empty((len(idx), d, d))
        stack[:, rows, cols] = stack[:, cols, rows] = (low[:, idx] + top[:, None]).T
        return distance_half(*eig_extremes_stack(stack))

    best_w, best_t, eigensolved = np.inf, 0, 0
    for h, top in enumerate(high):
        lb = _interlacing_bound(low, top, pairs, work) if slack < np.inf else np.zeros(chunk)
        probes = np.argpartition(lb, min(_PROBES, chunk) - 1)[:_PROBES]
        incumbent = min(best_w, float(devs(top, probes).min()))
        keep = np.flatnonzero(lb - slack <= incumbent)
        eigensolved += len(keep)
        for start in range(0, len(keep), _SOLVE_BATCH):
            part = keep[start:start + _SOLVE_BATCH]
            dev = devs(top, part)
            t = int(np.argmin(dev))
            if dev[t] < best_w:
                best_w, best_t = float(dev[t]), h * chunk + int(part[t])
    subset = tuple(j for j in range(m) if best_t >> j & 1)
    return OracleResult(subset_distance(inst, subset), subset, 1 << m, eigensolved=eigensolved)


def with_threshold(inst: Instance, res: OracleResult, c: float) -> OracleResult:
    """res with c set and feasible_eq1 = (w <= c*sqrt(alpha))."""
    feasible = res.w_value <= c * float(np.sqrt(inst.alpha))
    return replace(res, feasible_eq1=feasible, c=c)


def _bb_search(inst: Instance,
               node_limit: Optional[int]) -> tuple[float, tuple[int, ...], int, int]:
    """Blocked depth-first search: (minimum deviation found, its subset, leaves, popped nodes).

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
    return best_w, tuple(np.flatnonzero(best_row).tolist()), leaves, nodes


def branch_bound_w(inst: Instance, node_limit: Optional[int] = None) -> OracleResult:
    """W by blocked depth-first search with completion-bound pruning.

    w is subset_distance(argmin), like brute_force_w's; subsets_examined
    counts evaluated leaves and nodes the popped nodes; node_limit raises
    TooLarge when nodes would exceed it.
    """
    _, subset, leaves, nodes = _bb_search(inst, node_limit)
    return OracleResult(subset_distance(inst, subset), subset, leaves, nodes=nodes)

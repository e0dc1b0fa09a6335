"""Ground-truth discrepancy by branch-and-bound over all 2^m subsets.

W(inst) is the minimum over all 2^m subsets S of the worst-direction
deviation dev(S) = ||A_S - I/2|| of A_S = sum_{i in S} v_i v_i^T.  One search
computes it: branch_bound_w, which brute_force_w runs with m capped.  The
search decides the vectors in descending squared norm (a
stable argsort: equal norms keep input order) and prunes a partial choice over
the first i of them when even the best completion cannot beat the incumbent:
any completion A_S satisfies P <= A_S <= P + R_i (P = partial sum, R_i = mass
of the undecided vectors), so its deviation is at least
    bound = max(lambda_max(P) - 1/2, 1/2 - lambda_min(P + R_i), 0).
Large vectors first make lambda_max(P) rise and R_i shrink early, so the bound
prunes high in the tree.  On 80 gen_random(5, 20) instances the search
evaluated a median of about 400 of the 2^20 leaves (1,500 at most), and in
input order it was slower on every one, three times at the median.

The search is depth-first over blocks of up to _BLOCK nodes of one depth held
as arrays: a block costs one stacked eigensolve for its bounds and one for the
lambda_max of its include children, while exclude children keep their
parent's P and lambda_max.  Partial sums are built by the same elementwise
additions as a one-node-at-a-time search, and a stacked eigensolve equals the
per-matrix one bit for bit, so every bound and every leaf deviation is the
value that search computes; blocking changes only the visiting order, the
number of leaves evaluated and, among ties, the argmin.

Flip symmetry.  Let D_k be the identity with its k-th diagonal entry -1, and
suppose D_k v_j = +-v_sigma(j) for every j, exactly, with sigma a permutation
(_flip_generators finds every such sigma_k other than the identity, matching
the vectors bit for bit up to sign).  Then v_sigma(j) v_sigma(j)^T = D_k v_j
v_j^T D_k, so D_k A_S D_k = A_{sigma S} exactly; D_k is orthogonal, so
dev(sigma S) = dev(S) exactly.  The flips generate a group G of permutations
that keep dev, so dev is constant on each orbit of G on subsets.  Write S as
its membership row x in the search's order; sigma_k is an involution, so the
row of sigma_k S is x o sigma_k.  The lex-least row x* of an orbit (0 < 1,
position 0 most significant) satisfies x* <=_lex g(x*) for every g in G, so
for every generator: x* <=_lex x* o sigma_k.  A node at depth i knows x_j for
j < i, so it knows x and x o sigma_k on the first L_k(i) positions, the
longest prefix with j < i and sigma_k(j) < i.  When x >_lex x o sigma_k there,
no leaf below it is an orbit's lex-least row, and the node is cut: dropped
when popped, before any eigensolve, and counted in nodes and in cut.  A row
that passed at L_k(i - 1) passes again until L_k grows, so each generator is
tested only at those depths.  The cuts read membership only, so they are
exact, and every orbit keeps its lex-least row.  One cut per generator is the
whole rule: cuts by pairwise products of generators, or by the whole group,
dropped more nodes but took longer on F_UNSAT4.  On instances with no flip
(none of the gen_random or gen_planted instances tried has one) the search is
unchanged.

Rounding.  Let u = 2^-53 and T the computed sum of squares of all entries, so
N = 2T >= sum_k ||v_k||^2 >= ||A_S||_2 for every S.
  * Every matrix the search eigensolves (P, P + R_i, a leaf's sum), and the
    Gram behind subset_distance, is a floating-point sum M of the rounded
    products v_ki v_kj over some S, at most m terms an entry, so
    |M - A_S| <= gamma_m sum_{k in S} |v_k| |v_k|^T entrywise and
    ||M - A_S||_2 <= gamma_m N, gamma_m = m u / (1 - m u) (an underflowing
    product adds at most 2^-1074).
  * LAPACK's symmetric eigensolvers are backward stable: the computed
    eigenvalues are exact for some M + E with ||E||_2 <= p(d) u ||M||_2,
    p(d) modest (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 19.3; LAPACK Users' Guide sec. 4.7).  We take p(d) = 64 d^2.
    By Weyl's inequality each computed eigenvalue of M is within
    (gamma_m + p(d) u (1 + gamma_m)) N of the exact one of A_S.
  * Each subtraction of 1/2 errs by at most u (N + 1); max, min and the
    comparisons are exact.
So each computed bound and deviation is within eta = (m + 64 d^2 + 2) u
(2T + 1) of its exact value, the margin covering second-order terms.  An exact
bound is at most the exact deviation of every leaf below its node, so a
computed bound exceeds the computed deviation of a descendant leaf by at most
eps = 2 eta.  A subtree is pruned only when its bound is >= the incumbent,
which never rises; so the least computed deviation w~ among the leaves no cut
drops was either evaluated or lies under a pruned node whose bound is at most
w~ + eps, and the minimum the search returns is at most w~ + eps.  Those
leaves include the lex-least row of a minimiser's orbit, whose exact
deviation is W, so w~ <= W + eta as without cuts.  Hence the reported w lies
in [W - eta, W + 5 eta]: two runs, in any vector order, and a pass that
evaluates every subset, report w within 3 eps of each other.  eps is inf once
2T + 1 overflows.

The reported w = subset_distance(argmin) is recomputed from scratch on the
returned subset (input indices), so w never carries accumulator rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import BadParams, TooLarge
from .instance import Instance, subset_distance
from .linalg import distance_half, eig_extremes_stack

DEFAULT_M_LIMIT = 24
_BLOCK = 128  # nodes per branch-and-bound block


@dataclass(frozen=True)
class OracleResult:
    w_value: float
    argmin_subset: tuple[int, ...]
    subsets_examined: int
    eigensolved: int  # leaves evaluated
    nodes: int  # popped nodes, as node_limit counts them
    cut: int  # popped nodes dropped by the flip symmetry cuts
    feasible_eq1: Optional[bool] = None
    c: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "w": self.w_value,
            "subset": list(self.argmin_subset),
            "examined": self.subsets_examined,
            "eigensolved": self.eigensolved,
            "nodes": self.nodes,
            "cut": self.cut,
        }
        if self.feasible_eq1 is not None:
            d["feasible_eq1"] = self.feasible_eq1
            d["c"] = self.c
        return d


def brute_force_w(inst: Instance, m_limit: int = DEFAULT_M_LIMIT,
                  threads: int = 1) -> OracleResult:
    """branch_bound_w(inst), refused with TooLarge when m exceeds m_limit.
    threads is ignored; the benchmark's workloads pass threads=1."""
    if inst.num_vectors > m_limit:
        raise TooLarge(f"m = {inst.num_vectors} exceeds m_limit = {m_limit}")
    return branch_bound_w(inst)


def with_threshold(inst: Instance, res: OracleResult, c: float) -> OracleResult:
    """res with c set and feasible_eq1 = (w <= c*sqrt(alpha))."""
    if not 0 <= c < np.inf:
        raise BadParams(f"c must be finite and non-negative, got {c}")
    feasible = res.w_value <= c * float(np.sqrt(inst.alpha))
    return replace(res, feasible_eq1=feasible, c=c)


def _canonical(rows: np.ndarray) -> np.ndarray:
    """rows up to sign: each row's first nonzero entry made positive, -0.0 made 0.0."""
    first = np.argmax(rows != 0, axis=1)
    sign = np.where(rows[np.arange(len(rows)), first] < 0, -1.0, 1.0)
    return rows * sign[:, None] + 0.0


def _flip_generators(vectors: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(k, sigma_k) for every coordinate k whose sign flip D_k maps each vector
    to +- another: D_k v_j = +-v_sigma_k(j) bit for bit, up to the sign of
    zeros, with sigma_k an involution other than the identity.  Rows equal
    up to sign are paired in index order.
    """
    m, d = vectors.shape
    canon = _canonical(vectors)
    classes: dict[bytes, list[int]] = {}
    for j, row in enumerate(canon):
        classes.setdefault(row.tobytes(), []).append(j)
    reps = canon[[members[0] for members in classes.values()]]
    found = []
    for k in range(d):
        flipped = reps.copy()
        flipped[:, k] = -flipped[:, k]
        sigma = np.arange(m)
        for members, row in zip(classes.values(), _canonical(flipped)):
            mates = classes.get(row.tobytes(), [])
            if len(mates) != len(members):
                break
            sigma[members] = mates
        else:
            if (sigma != np.arange(m)).any():
                found.append((k, sigma))
    return found


def _lex_greater(member: np.ndarray, sigma_prefix: np.ndarray) -> np.ndarray:
    """Rows x with x >_lex x o sigma on the first len(sigma_prefix) positions."""
    x, y = member[:, :len(sigma_prefix)], member[:, sigma_prefix]
    return (x & ~y)[np.arange(len(x)), np.argmax(x != y, axis=1)]


def _bb_search(inst: Instance, node_limit: Optional[int]
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
    # lex[i] holds sigma[:L] for each flip whose decided prefix grows at depth
    # i: the first L positions j with j < i and sigma(j) < i.
    lex: list[list[np.ndarray]] = [[] for _ in range(m + 1)]
    for _, sigma in _flip_generators(vectors):
        reach = np.maximum.accumulate(np.maximum(sigma, np.arange(m)))
        decided = np.searchsorted(reach, np.arange(m + 1))
        for i in np.flatnonzero(np.diff(decided)) + 1:
            lex[i].append(sigma[:decided[i]])

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
        for s in reversed(range(0, len(p), _BLOCK)):
            stack.append((i + 1, p[s:s + _BLOCK], member[s:s + _BLOCK], hi[s:s + _BLOCK]))
    return best_w, tuple(np.flatnonzero(best_row).tolist()), leaves, nodes, cut


def branch_bound_w(inst: Instance, node_limit: Optional[int] = None) -> OracleResult:
    """Exact W by _bb_search over the vectors in descending squared norm.

    examined is 2^m, as every subset is evaluated, ruled out by the
    completion bound or cut as no orbit's lex-least subset; eigensolved
    counts the leaves evaluated, nodes the popped nodes, at most
    2^(m+1) - 1, and cut the popped nodes the flip cuts dropped; node_limit
    raises TooLarge when nodes would exceed it.
    """
    v = inst.vectors
    order = np.argsort(-(v * v).sum(axis=1), kind="stable")
    _, chosen, leaves, nodes, cut = _bb_search(replace(inst, vectors=v[order]), node_limit)
    subset = tuple(sorted(order[list(chosen)].tolist()))
    return OracleResult(subset_distance(inst, subset), subset, 1 << len(v), leaves, nodes, cut)

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

The search is band_search, shared with ks2.solver: depth first over blocks
of up to _BLOCK nodes of one depth held as arrays.  Partial sums are built
by the same elementwise additions as a one-node-at-a-time search, and a
stacked eigensolve equals the per-matrix one bit for bit, so every value is
that search's; blocking changes only the visiting order, the number of
leaves evaluated and, among ties, the argmin.

Bounds as intervals.  band_search keeps a node at depth k while
max(h, l, 0) < width for the computed h = lambda_max(P + F) - high and
l = low - lambda_min(P + R_k), band [low, high, width] and F a fixed term;
the oracle's F is 0 and its band [1/2, 1/2, w], w the incumbent.  Each node
carries an interval [a, b] for each value and computes the value only when
the interval straddles width (a < width <= b); otherwise b < width or
a >= width gives the test's answer.  h goes first, so a node that it drops
never computes l.  The root's intervals are [-inf, inf].  A kept node
passes to its children, with s = |v_k|^2 and slack 3 eta (eta as under
Rounding below):
  * the exclude child (P, R_k+1) keeps h's [a, b] and takes l's as
    [a - 3 eta, b + s + 3 eta];
  * the include child (P + v_k v_k^T, R_k+1) takes h's as
    [a - 3 eta, b + s + 3 eta] and l's as [a - 3 eta, b + 3 eta].
A computed value lies in its interval, by induction over depth.  The exclude
child's P is its parent's array, so its h is its parent's.  Otherwise let c,
c' be the parent's and child's computed values and e, e' the same values for
the exact A_S; |c - e| and |c' - e'| are at most eta.  Adding the PSD
v_k v_k^T raises no eigenvalue and none by more than s (Weyl), so e' - e lies
in [0, s] for the include child's h (A_S + v_k v_k^T + F) and for the
exclude child's l (A_S + R_k+1 = A_S + R_k - v_k v_k^T), and the include
child's l has e' = e, as A_S + v_k v_k^T + R_k+1 = A_S + R_k.  So c' lies
in [c - 2 eta, c + s + 2 eta], or [c - 2 eta, c + 2 eta], with c in the
parent's [a, b].  The third eta covers rounding in the ends: each stays
below 2 N + 3 + 3 (m + 1) eta in magnitude, so the computed s and the two
additions that make an end err by far less than eta.  Every keep or prune is
therefore the one made by computing every value (tests/reference_oracle.py
keeps that search), and so are the nodes, the cuts, the leaves, the minimum
and its argmin.  Once 2T + 1 overflows, eta is inf: every interval but an
exclude child's h is [-inf, inf], and every value a test reads is computed.

Symmetry.  Let Q be a signed permutation matrix, (Q v)_k = s_k v_pi(k) with
pi a permutation of the coordinates and each s_k = +-1, and suppose
Q v_j = +-v_sigma(j) for every j, exactly, with sigma a permutation of the
vectors.  Permuting and negating entries is exact, so v_sigma(j) v_sigma(j)^T
= Q v_j v_j^T Q^T and Q A_S Q^T = A_{sigma S} exactly; Q is orthogonal, so
dev(sigma S) = dev(S) exactly.  These sigma form a group G of permutations
that keep dev, so dev is constant on each orbit of G on subsets.  Write S as
its membership row x in the search's order; x o g, (x o g)_j = x_g(j), is
the row of g^-1 S.  So the lex-least row x* of an orbit (0 < 1, position 0
most significant) satisfies x* <=_lex x* o g for every g in G, x* o g being
the row of g^-1 S*, and any set of elements of G is a sound set of cuts.
_symmetries finds generators of three kinds, matching the vectors bit for
bit up to sign: the flips Q = D_k (the identity with its k-th diagonal entry
-1), signed coordinate permutations, and, with Q = I, the transposition of
two rows equal up to sign.  The search tests the flips and the signed
permutations, every product of two of them in either order, and the
transpositions (_cut_permutations).  A node at depth i knows x_j for j < i,
so it knows x and x o g on the first L_g(i) positions, the longest prefix
with j < i and g(j) < i.  When x >_lex x o g there, no leaf below it is an
orbit's lex-least row, and the node is cut: dropped when popped, before any
eigensolve, and counted in nodes and in cut.  A row that passed at
L_g(i - 1) passes again until L_g grows, so g is tested only at those
depths.  x >_lex x o g on L positions exactly when
s = sum_{j<L} (x_j - x_g(j)) 2^-j > 0, as 2^-j exceeds the sum of all later
powers; one matrix product of the membership rows with these weights tests
every g at a depth.  s is a signed sum of distinct powers of two, and so is
every partial sum: a multiple of 2^(1-L) below 2 in magnitude, exact for
L <= 53 in any summation order.  Longer prefixes are cut into pieces of
_PIECE positions, weighted 2^-(j mod _PIECE), and the first nonzero piece
gives the sign.  The cuts read membership only, so they are exact, and every
orbit keeps its lex-least row.  gen_random instances have none of these
symmetries, and the search on them is unchanged; gen_planted instances
repeat every vector and are cut by the transpositions alone.

Rounding.  Let u = 2^-53 and T the computed sum of squares of all entries, so
N = 2T >= sum_k ||v_k||^2 >= ||A_S||_2 for every S.
  * Every matrix the search eigensolves (P + F, P + R_k, a leaf's sum), and the
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
  * Each subtraction of a centre c, |c| <= 2 (1/2 here; the solver's band
    ends are within 2 + 2 eta of 0, a second-order 2 u eta more), errs by at
    most u (N + 2) <= 2 u (N + 1); max, min and the comparisons are exact.
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
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import BadParams, TooLarge
from .instance import Instance, subset_distance
from .linalg import distance_half, eig_extremes_stack, rounding_eta

DEFAULT_M_LIMIT = 24
_BLOCK = 128  # nodes per branch-and-bound block
_PIECE = 52  # prefix positions per exactly summed piece of the lex test


@dataclass(frozen=True)
class OracleResult:
    w_value: float
    argmin_subset: tuple[int, ...]
    subsets_examined: int
    eigensolved: int  # leaves evaluated
    nodes: int  # popped nodes, as node_limit counts them
    cut: int  # popped nodes dropped by the symmetry cuts
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


def _sorted_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rows up to sign, each with its first nonzero entry made positive and
    -0.0 made 0.0, in lexicographic order; and the stable argsort that puts
    them there, so that equal rows keep index order."""
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    canon = np.where(lead[:, None] < 0, -rows, rows) + 0.0
    order = np.lexsort(canon.T[::-1])
    return canon[order], order


def _symmetries(vectors: np.ndarray) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    """Generators (Q, sigma) of the exact symmetries Q v_j = +-v_sigma(j) of the
    rows, bit for bit up to the sign of zeros, with Q a signed permutation
    matrix and sigma not the identity, by kind:
      * "flips": Q = D_k for each coordinate k whose sign flip is a symmetry;
      * "permutations": other signed coordinate permutations (below);
      * "transpositions": Q = I, sigma swapping two rows equal up to sign
        that are adjacent, in index order, among the rows equal to them.
    Rows equal up to sign are paired in index order.

    The permutations come from a stabilizer chain over the coordinates in
    index order, deepest level first.  Level l holds the symmetries that fix
    e_0, ..., e_l-1.  For each +-e_c that the generators so far at level l or
    deeper do not reach from e_l, a backtrack over the coordinates after l
    looks for one with Q e_c = +-e_l and keeps it, so no kept generator is
    generated by those before it.  Coordinate k is mapped only from a column
    with the same invariant, sorted |V[:, k]|, as a symmetry maps column
    pi(k) to column k up to sign and the order of the rows; an assignment of
    the first k coordinates is dropped once its rows up to sign are not
    those of V's first k columns as a multiset; and a coordinate whose flip
    D_k is a symmetry keeps its sign, as D_k Q is a symmetry exactly when Q
    is.  With -I and the flips that are symmetries as known generators,
    each level's orbit ends complete, and the kept generators with them
    generate every symmetry.  When every column invariant differs, the only
    symmetries left are sign patterns, and the chain is skipped: any subset
    of the symmetries cuts soundly.  Which generators the chain keeps is a
    choice: the backtrack maps a coordinate to itself first, and a level
    tries its images from the last coordinate back.  Of the orders tried,
    this one made the search on F_SAT3 and F_UNSAT4 pop the fewest blocks.
    """
    m, d = vectors.shape
    rows, order = _sorted_rows(vectors)
    heads = {d: rows}  # k -> the sorted rows up to sign of V's first k columns

    def matches(perm: list[int], signs: list[float]) -> Optional[np.ndarray]:
        """For Q given on its first k = len(perm) coordinates by
        (Q v)_i = signs_i v_perm(i): the stable order of the rows of Q V
        there, up to sign, when they are those of V's first k columns as a
        multiset; else None."""
        k = len(perm)
        if k not in heads:
            heads[k] = _sorted_rows(vectors[:, :k])[0]
        image, at = _sorted_rows(vectors[:, perm] * signs)
        return at if np.array_equal(image, heads[k]) else None

    def pairing(at: np.ndarray) -> np.ndarray:
        """sigma of a whole symmetry, from the order that matches(...) gave."""
        sigma = np.empty(m, dtype=np.intp)
        sigma[at] = order
        return sigma

    found: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {
        "flips": [], "permutations": [], "transpositions": []}
    ident = list(range(d))
    known = {np.arange(m).tobytes()}
    chain = [_signed_point_map(ident, [-1.0] * d)]  # -I, whose sigma is the identity
    flippable = set()
    for k in range(d):
        signs = [-1.0 if i == k else 1.0 for i in ident]
        at = matches(ident, signs)
        if at is not None:
            sigma = pairing(at)
            flippable.add(k)
            chain.append(_signed_point_map(ident, signs))
            known.add(sigma.tobytes())
            if (sigma != np.arange(m)).any():
                found["flips"].append((np.diag(signs), sigma))
    for i in np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1)):
        sigma = np.arange(m)
        sigma[order[[i, i + 1]]] = order[[i + 1, i]]
        found["transpositions"].append((np.eye(d), sigma))
    keys = [col.tobytes() for col in np.sort(np.abs(vectors), axis=0).T]
    if len(set(keys)) == d:
        return found

    def extend(perm: list[int], signs: list[float]
               ) -> Optional[tuple[list[int], list[float], np.ndarray]]:
        """(perm, signs, sigma) of a symmetry whose first len(perm)
        coordinates are these, or None."""
        at = matches(perm, signs)
        k = len(perm)
        if at is None:
            return None
        if k == d:
            return perm, signs, pairing(at)
        for c in sorted(range(d), key=lambda c: c != k):
            if keys[c] == keys[k] and c not in perm:
                for s in (1.0,) if k in flippable else (1.0, -1.0):
                    q = extend(perm + [c], signs + [s])
                    if q is not None:
                        return q
        return None

    for level in reversed(range(d)):
        reached = _orbit(chain, level)
        for c in reversed(range(level, d)):
            for s in (1.0,) if level in flippable else (1.0, -1.0):
                if keys[c] != keys[level] or 2 * c + (s < 0) in reached:
                    continue
                q = extend(ident[:level] + [c], [1.0] * level + [s])
                if q is None:
                    continue
                perm, signs, sigma = q
                chain.append(_signed_point_map(perm, signs))
                reached = _orbit(chain, level)
                if sigma.tobytes() not in known:
                    known.add(sigma.tobytes())
                    matrix = np.zeros((d, d))
                    matrix[ident, perm] = signs
                    found["permutations"].append((matrix, sigma))
    return found


def _signed_point_map(perm: list[int], signs: list[float]) -> tuple[int, list[int]]:
    """Q, given by (Q v)_k = signs_k v_perm(k), as a map of the signed points
    (+e_i is 2i, -e_i is 2i + 1; Q e_perm(k) = signs_k e_k), and the number
    of leading coordinates that it fixes."""
    image = [0] * (2 * len(perm))
    for k, (p, s) in enumerate(zip(perm, signs)):
        image[2 * p], image[2 * p + 1] = (2 * k, 2 * k + 1) if s > 0 else (2 * k + 1, 2 * k)
    fixed = next((i for i in range(len(perm)) if image[2 * i] != 2 * i), len(perm))
    return fixed, image


def _orbit(chain: list[tuple[int, list[int]]], level: int) -> set[int]:
    """The signed points that the maps of chain fixing the first level
    coordinates reach from +e_level."""
    maps = [image for fixed, image in chain if fixed >= level]
    reached, todo = {2 * level}, [2 * level]
    while todo:
        x = todo.pop()
        for image in maps:
            if image[x] not in reached:
                reached.add(image[x])
                todo.append(image[x])
    return reached


def _cut_permutations(vectors: np.ndarray) -> list[np.ndarray]:
    """The permutations the lex-leader cuts test: the sigma of every flip and
    signed coordinate permutation of _symmetries, every product of two of
    them in either order, and every equal-row transposition, each once and
    the identity left out.  The transpositions are multiplied with nothing."""
    found = _symmetries(vectors)
    gens = [sigma for _, sigma in found["flips"] + found["permutations"]]
    products = [s[t] for s in gens for t in gens if s is not t]
    swaps = [sigma for _, sigma in found["transpositions"]]
    perms = {g.tobytes(): g for g in gens + products + swaps}
    perms.pop(np.arange(len(vectors)).tobytes(), None)
    return list(perms.values())


def _lex_weights(perms: np.ndarray, lengths: np.ndarray, m: int) -> np.ndarray:
    """(m, pieces, E) weights of the lex test of each row g = perms[e] on its
    first L = lengths[e] positions: piece q of a membership row x times
    column e is sum (x_j - x_g(j)) 2^-(j - q _PIECE) over the positions j < L
    in [q _PIECE, (q + 1) _PIECE)."""
    weights = np.zeros((m, -(-lengths.max(initial=0) // _PIECE), len(perms)))
    e, j = np.nonzero(np.arange(lengths.max(initial=0)) < lengths[:, None])
    power = (2.0 ** -np.arange(_PIECE))[j % _PIECE]
    # (j, e) pairs are distinct, and so are (g(j), e) pairs: no index repeats.
    weights[j, j // _PIECE, e] = power
    weights[perms[e, j], j // _PIECE, e] -= power
    return weights


def _lex_greater(member: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows x of member (L, m) with x >_lex x o g on g's prefix for some
    column g of _lex_weights: the first nonzero piece of a column is > 0."""
    sums = (member @ weights.reshape(len(weights), -1)).reshape(len(member), *weights.shape[1:])
    sign = sums[:, -1]
    for piece in range(sums.shape[1] - 2, -1, -1):
        sign = np.where(sums[:, piece] != 0, sums[:, piece], sign)
    return (sign > 0).any(axis=1)


def band_search(outers: np.ndarray, root: tuple, band: list, eta: float, drop: Callable,
                split: Optional[Callable] = None, lex: bool = False) -> Iterator[list]:
    """Depth-first search that yields its blocks of depth-n nodes, n = len(outers) - 1.

    A block row is a node: its sum P of outers[:n] (outers[k] added in an
    include child at depth k), membership row and state arrays, begun from
    root.  A node above depth n stays while max(h, l, 0) < width (Bounds as
    intervals, module docstring; F = outers[n], band = [low, high, width],
    which the caller may change between yields, eta the rounding bound).
    drop(k, block) sees each popped block first and masks the nodes to keep
    (None: all); split(k, block) masks the kept nodes that keep their
    exclude child and gives their include children's state, else the
    parent's.  A block's exclude children precede its include children, or
    with lex each parent's two are adjacent and blocks pop in lex order, in
    blocks of _BLOCK nodes pushed so that the first pops first."""
    n = len(outers) - 1
    forced = outers[n] if outers[n].any() else None  # P + 0 is P: skip the add
    suffix = np.cumsum(outers[::-1], axis=0)[::-1]  # suffix[k] = R_k
    # grow[k, c] is added to a kept node's [lower, upper] of (h, l) to give
    # its exclude (c = 0) or include (c = 1) child's, exclude children first.
    squares, slack = np.einsum("kii->k", outers[:n]), 3 * eta
    grow = np.empty((n, 2, 1, 2, 2))
    grow[...] = -slack, slack
    grow[:, 0, 0, 0] = 0.0  # the exclude child keeps P, so its h
    grow[:, 0, 0, 1, 1] += squares  # P + R_k+1 = P + R_k - outers[k]
    grow[:, 1, 0, 0, 1] += squares  # P + outers[k]
    stack = [(0, root, np.array([[[-np.inf, np.inf]] * 2]))]
    while stack:
        k, block, bounds = stack.pop()
        keep = drop(k, block)
        if keep is not None:
            block, bounds = [a[keep] for a in block], bounds[keep]
            if not len(bounds):
                continue
        if k == n:
            yield block
            continue
        low, high, width = band
        if not width > 0:  # max(.., 0) < width fails for every node
            continue
        p, lower, upper = block[0], bounds[..., 0], bounds[..., 1]
        open_ = ~((upper < width) | (lower >= width))
        solve = open_[:, 0]
        if np.count_nonzero(solve):
            top = p[solve] if forced is None else p[solve] + forced
            bounds[solve, 0] = (eig_extremes_stack(top)[1] - high)[:, None]
        keep = upper[:, 0] < width
        solve = keep & open_[:, 1]
        if np.count_nonzero(solve):
            bounds[solve, 1] = (low - eig_extremes_stack(p[solve] + suffix[k])[0])[:, None]
        keep &= upper[:, 1] < width
        block, bounds = [a[keep] for a in block], bounds[keep]
        if not len(bounds):
            continue
        p, member, *state = block
        excl, fresh = (None, state) if split is None else split(k, block)
        size = len(bounds)
        children = [np.concatenate(pair) for pair in zip(block, (p + outers[k], member, *fresh))]
        children[1][size:, k] = True
        bounds = (bounds + grow[k]).reshape(-1, 2, 2)
        if lex or excl is not None:
            pick = np.arange(2 * size).reshape(2, size)
            pick = (pick.T if lex else pick).ravel()
            pick = pick if excl is None else pick[(pick >= size) | excl[pick % size]]
            children, bounds = [a[pick] for a in children], bounds[pick]
        for s in reversed(range(0, len(bounds), _BLOCK)):
            stack.append((k + 1, [a[s:s + _BLOCK] for a in children], bounds[s:s + _BLOCK]))


def _bb_search(inst: Instance, node_limit: Optional[int]
               ) -> tuple[float, tuple[int, ...], int, int, int]:
    """band_search over the vectors in the order given, with F = 0 and the
    band [1/2, 1/2, w] for the incumbent w, its lex-leader cuts as drop:
    (minimum deviation found, its subset, leaves, popped nodes, nodes cut)."""
    vectors = inst.vectors
    m, d = vectors.shape
    outers = np.concatenate((vectors[:, :, None] * vectors[:, None, :], np.zeros((1, d, d))))
    # cuts[i]: the lex weights of each g whose decided prefix (the positions
    # j < i with g(j) < i) grows at depth i, to j + 1 at depth reach + 1 where
    # reach = max(g(0), 0, ..., g(j), j) rises after j.
    perms = np.array(_cut_permutations(vectors), dtype=np.intp).reshape(-1, m)
    reach = np.maximum.accumulate(np.maximum(perms, np.arange(m)), axis=1)
    e, j = np.nonzero(np.diff(reach, axis=1, append=m))
    depth = reach[e, j] + 1
    weights = _lex_weights(perms[e], j + 1, m)
    # A set, not np.unique: np.unique loads numpy.ma at its first call.
    cuts = {t: np.ascontiguousarray(weights[:, :, depth == t]) for t in set(depth.tolist())}
    leaves = nodes = cut = 0

    def drop(i, block):
        nonlocal nodes, cut
        nodes += len(block[0])
        if node_limit is not None and nodes > node_limit:
            raise TooLarge(f"branch-and-bound exceeded node limit {node_limit}")
        keep = None if i not in cuts else ~_lex_greater(block[1], cuts[i])
        dropped = 0 if keep is None else len(keep) - int(np.count_nonzero(keep))
        cut += dropped
        return keep if dropped else None

    band, best_row = [0.5, 0.5, np.inf], np.zeros(m, dtype=bool)
    root = (np.zeros((1, d, d)), np.zeros((1, m), dtype=bool))
    for p, member in band_search(outers, root, band, rounding_eta(vectors), drop):
        dev = distance_half(*eig_extremes_stack(p))
        t = int(dev.argmin())
        leaves += len(p)
        if dev[t] < band[2]:
            band[2], best_row = float(dev[t]), member[t]
    return band[2], tuple(np.flatnonzero(best_row).tolist()), leaves, nodes, cut


def branch_bound_w(inst: Instance, node_limit: Optional[int] = None) -> OracleResult:
    """Exact W by _bb_search over the vectors in descending squared norm.

    examined is 2^m, as every subset is evaluated, ruled out by the
    completion bound or cut as no orbit's lex-least subset; eigensolved
    counts the leaves evaluated, nodes the popped nodes, at most
    2^(m+1) - 1, and cut the popped nodes the symmetry cuts dropped; node_limit
    raises TooLarge when nodes would exceed it.
    """
    v = inst.vectors
    order = np.argsort(-(v * v).sum(axis=1), kind="stable")
    _, chosen, leaves, nodes, cut = _bb_search(replace(inst, vectors=v[order]), node_limit)
    subset = tuple(sorted(order[list(chosen)].tolist()))
    return OracleResult(subset_distance(inst, subset), subset, 1 << len(v), leaves, nodes, cut)

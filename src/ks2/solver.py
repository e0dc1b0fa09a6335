"""Randomised depth-first search for a subset within the epsilon-relaxed band.

The paper grows level sets L_0, ..., L_m.  An entry of L_k is a pair
(representative subset S of {0, ..., k-1}, sparsifier state B).  Level i
gates S' = S + {i} of each entry directly on the eigenvalues of A_{S'}
(exact comparison, zero slack); if the gate fails, the entry's sparsifier
observes v_i with a deterministic per-path uniform draw, and its children
enter the next level:

  - on a keep:   both (S, old state) and (S', new state);
  - on a skip:   only (S', old state).

Entries whose sparsifier already holds more than n sampled vectors are
dropped (size filter).  The answer is the first gate hit of the shallowest
level that has one.  Any subset returned has been re-checked from scratch,
so a "found" outcome is sound unconditionally; "not found" can be wrong
only when a valid subset exists and every sampling path missed it.  Under
certified saturation (below) it cannot: "not found" is then exact.

The levels form a tree whose nodes at depth k are the entries of L_k.  A
child depends only on its parent, v_k and the draw keyed by (seed, k,
ledger hash), so the tree does not depend on the order of the walk, and as
a keep lists the exclude child (S) first, each level lists its entries in
lex order of their membership rows (position 0 most significant).  solve
holds no level: search i, for i = 0, 1, ..., m-1, is ks2.oracle.band_search
over v_0, ..., v_i-1 with v_i forced in, in lex order.  It gates each
depth-i node S as S + {i} by the gate's own call
eig_extremes_stack(inst.grams(rows)) and stops at the first hit, the
lex-least of the shallowest level.  On the sampled path a block also holds
the sparsifier sum B, the sample count and the ledger hash; drop
size-filters a popped block, and split draws with one batched shifted
solve and one vectorised draw for the nodes with 0 < p < 1, bit for bit
as the per-entry sparsifier.observe (tests/reference_solver.py keeps that
reference solver).  With collect_subsets, one more search with no forced
vector (v_m = 0) walks to depth m, where nodes are neither filtered nor
pruned: its depth-m nodes are the final level, final_subsets.

No two entries of a level ever hold the same ledger, so paths never need
merging.  By induction: L_0 holds one ledger; each entry passes its ledger
L_j unchanged to exactly one child, and a keep adds L_j + ((i, w),), the
only kind of ledger that contains index i, distinct for distinct L_j; the
size filter only removes entries.  SolveStats.dedup_hits is kept in the
output and always reads 0.

Completion-bound pruning.  Search i keeps a node S at depth k while the
computed lambda_max(P + v_i v_i^T) <= hi_bound + 2 eta and lambda_min(P +
v_k v_k^T + ... + v_i v_i^T) >= lo_bound - 2 eta, eta as in ks2.oracle's
Rounding: band [lo_bound - 2 eta, hi_bound + 2 eta], width the least
positive double, as x < 5e-324 exactly when x <= 0
(Bounds as intervals, ks2.oracle docstring).  No gate hit is lost.  Every
set that search i gates below S is some G = S' + {i} with S <= S' <= S +
{k, ..., i-1}, so A_{S+{i}} <= A_G <= A_{S+{k,...,i}}, and every computed
eigenvalue, the gate's too, lies within eta of the exact one.  So a computed
lambda_max(P + v_i v_i^T) above hi_bound + 2 eta puts the exact
lambda_max(A_G) above hi_bound + eta and the gate's computed hi above
hi_bound; a computed lambda_min below lo_bound - 2 eta likewise puts the
gate's lo below lo_bound.  The prune changes neither the nodes below the
survivors nor their draws, so search i gates every gate hit of L_i in lex
order, and status, subset, report and final_subsets are those of the
level-set search.  The collect pass prunes by the same rule with v_m = 0.

Certified saturation.  Let Lam = lambda_max(A_all) exactly, t its computed
value (|t - Lam| <= eta, by one eigensolve), lam the ridge,
kappa = (t + eta + lam) / lam >= (Lam + lam) / lam, N = 2T and
g = (m + 3 d + 8) u (N + d lam) / lam.  Suppose every weight so far is 1.0.
Then a node's sum B is the floating-point sum of the rounded v_j v_j^T,
j in S, and A_S <= A_all <= Lam I.  The sampled path would compute p thus
(to first order in u; the constants are rounded up to cover the rest):
  * ||B - A_S||_2 <= gamma_m N, as in the ks2.oracle docstring.
  * The shift delta / mu is lam (1 + theta) with |theta| <= gamma_2, and
    adding it rounds each diagonal entry once, so the matrix factored is
    H = A_S + lam I + E with ||E||_2 <= (m + 2) u (N + lam).
  * dposv's solution x solves (H + dH) x = v with |dH| <=
    gamma_{3d+1} |R^T| |R| for the computed Cholesky factor R (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.4, in
    any summation order), and || |R^T| |R| ||_2 <= ||R||_F^2 <=
    tr H / (1 - gamma_{d+1}) by Thm 10.3, so ||dH||_2 <= (3d + 2) u (N +
    d lam).  Hence x = (K + F)^-1 v with K = A_S + lam I, lam I <= K <=
    (Lam + lam) I and ||F||_2 <= g lam.  dposv also runs to completion: the
    diagonally scaled H has smallest eigenvalue at least 1 / (2 kappa), above
    d gamma_{d+1} / (1 - gamma_{d+1}) (Thm 10.7) once (d + 1)^2 u kappa <=
    1/4.
  * With w = K^-1/2 v and G = K^-1/2 F K^-1/2, ||G||_2 <= g <= 1/2 and
    v . x = w^T (I + G)^-1 w >= (1 - 2 g) ||v||^2 / (Lam + lam): the
    condition number (Lam + lam) / lam amplifies the rounding of H and of
    the solve through g.
  * The dot product adds at most gamma_d ||v|| ||x|| <= 2 gamma_d kappa
    ||v||^2 / (Lam + lam), amplified by kappa again.
  * p = min(b^ q, 1) for the computed budget b^ and quadratic form q is
    1.0 exactly once b^ q >= 1, as rounding is monotone.
saturation_margin computes r = b^ s / (t + lam) with the same b^, s the
computed min_i ||v_i||^2 <= (1 + gamma_d) min_i ||v_i||^2, in three
roundings, so the exact quotient is at least (1 - 4 u) r.  With
    sigma = (d + 6) u + eta / (t + lam) + 4 g + (d + 1)(d + 5) u kappa,
the product of the factors above, 1 / (1 - 4 u), 1 + gamma_d,
1 + eta / (t + lam) and 1 / (1 - 2 g - 2 gamma_d kappa), is at most
exp(sigma) <= 1 + 2 sigma for sigma <= 1/4, which also gives g <= 1/16 and
the Cholesky condition.  The margin is r / (1 + 4 sigma), and the 2 sigma
left over covers the rounding of sigma and of that division.  A margin of
at least 1 thus gives b^ q >= 1: p = 1.0 exactly and the weight 1 / p is
1.0, so the child satisfies the hypothesis, and by induction so does every
draw of the run.  A sample count is then |S| <= k at depth k, so the size
filter never fires while n >= m.  solve takes this certified path when
saturation_margin is at least 1; the margin is 0 when d = 1, n < m or
sigma > 1/4.  It keeps both children of every node at weight 1, skipping
the shifted solves, the draws, the ledger hashes and the size filter, none
of which can change a result; the gate and the prune are those of the
sampled path, so every outcome, stats included, is that path's.  As no node
is ever lost to a skip or the filter, every set S + {i} with S a subset of
{0, ..., i-1} is either gated by search i or lies below a node that search
i pruned, which proves that it does not gate.  A certified "not found"
therefore shows that the gate's computed extremes of every nonempty A_G
miss the relaxed band: up to the gate's eigenvalue rounding (eta), no
subset satisfies eq2.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import prng
from .errors import InfeasibleParameters, InternalInvariantError, TooLarge
from .instance import Instance, SubsetReport, check_subset, validate
from .linalg import eig_extremes_stack, rounding_eta
from .oracle import band_search
from .sparsifier import budget, fold_ledger_hashes, new_state, stack_probabilities

DEFAULT_LEVEL_CONSTANT = 40.0


@dataclass(frozen=True)
class SolverParams:
    """Derived run parameters.

    mu = epsilon/6 exactly; lam = min(c*sqrt(alpha), 1/2 - c*sqrt(alpha));
    the sparsifier delta is mu * lam, so its ridge delta/mu equals lam;
    n = ceil(C d ln(d) ln(1/lam) / mu^2), the size-filter bound.  The
    sampling budget is sparsifier.budget(d, mu).
    """

    c: float
    epsilon: float
    mu: float
    lam: float
    n: int

    @property
    def delta(self) -> float:
        return self.mu * self.lam


def derive_params(inst: Instance, c: float, epsilon: float,
                  level_constant: float = DEFAULT_LEVEL_CONSTANT) -> SolverParams:
    """Compute the run parameters for an instance and target band."""
    if not (0 < epsilon < 1):
        raise InfeasibleParameters(f"epsilon must be in (0, 1), got {epsilon}")
    if not c > 0:
        raise InfeasibleParameters(f"c must be positive, got {c}")
    if not 0 < level_constant < math.inf:
        raise InfeasibleParameters(f"C must be positive and finite, got {level_constant}")
    ca = c * math.sqrt(inst.alpha)
    if ca >= 0.5:
        raise InfeasibleParameters(
            f"c*sqrt(alpha) = {ca:.6g} >= 1/2: the target band touches 0 or 1")
    mu = epsilon / 6.0
    lam = min(ca, 0.5 - ca)
    d = inst.dim
    try:  # lam or mu**2 can underflow to 0, and the bound overflow to inf
        n = max(1, math.ceil(level_constant * d * math.log(d) * math.log(1.0 / lam) / mu**2))
    except (ZeroDivisionError, OverflowError):
        raise InfeasibleParameters(
            f"size bound n is not finite at c = {c}, epsilon = {epsilon}") from None
    return SolverParams(c=c, epsilon=epsilon, mu=mu, lam=lam, n=n)


@dataclass
class SolveStats:
    """Counters of one solve.  levels_processed counts the searches run, one
    per level; peak_level_size is the most depth-i nodes that search i
    gated; nodes counts the popped nodes, as node_limit does, and pruned and
    size_filtered the nodes the completion bound and the size filter
    dropped, all summed over the searches."""

    levels_processed: int = 0
    peak_level_size: int = 0
    size_filtered: int = 0
    pruned: int = 0
    dedup_hits: int = 0
    nodes: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def saturation_margin(inst: Instance, params: SolverParams) -> float:
    """b (1 + mu) min_i ||v_i||^2 / (lambda_max(A_all) + lam) over its proven
    rounding factor 1 + 4 sigma (Certified saturation, module docstring).

    At least 1 certifies that every sampling probability of a solve is 1.0
    and that the size filter never fires; 0 when no certificate can hold
    (d = 1, n < m, mu^2 underflows, sigma > 1/4).
    """
    m, d = inst.vectors.shape
    if d < 2 or params.n < m or params.mu**2 == 0:
        return 0.0
    top = float(eig_extremes_stack(inst.grams(np.ones((1, m), dtype=bool)))[1][0])
    u, lam = 2.0**-53, params.lam
    eta = rounding_eta(inst.vectors)
    kappa = (top + eta + lam) / lam
    g = (m + 3 * d + 8) * u * (2 * float(np.sum(inst.vectors**2)) + d * lam) / lam
    sigma = (d + 6) * u + eta / (top + lam) + 4 * g + (d + 1) * (d + 5) * u * kappa
    if not sigma <= 0.25:
        return 0.0
    least = float(np.min(np.sum(inst.vectors**2, axis=1)))
    return budget(d, params.mu) * least / (top + lam) / (1 + 4 * sigma)


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "found" | "not-found"
    subset: Optional[tuple[int, ...]]
    report: Optional[SubsetReport]
    stats: SolveStats
    final_subsets: Optional[list[tuple[int, ...]]] = field(default=None, compare=False)

    @property
    def found(self) -> bool:
        return self.status == "found"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "subset": list(self.subset) if self.subset is not None else None,
            "lambda_min": self.report.lambda_min if self.report else None,
            "lambda_max": self.report.lambda_max if self.report else None,
            "stats": self.stats.to_dict(),
        }


def solve(inst: Instance, c: float, epsilon: float, seed: int,
          params_override: Optional[SolverParams] = None,
          collect_subsets: bool = False,
          threads: int = 1,
          node_limit: Optional[int] = None) -> SolveOutcome:
    """Run the search; deterministic per (instance, c, epsilon, seed, params).

    collect_subsets records the final level's representative subsets in
    final_subsets.  node_limit raises TooLarge when the popped nodes would
    exceed it.  threads is ignored (blocks are processed by batched kernels
    in the calling thread); it stays only because the benchmark's workloads
    pass threads=1.
    """
    if not inst.validated:
        inst = validate(inst)
    params = params_override if params_override is not None else derive_params(inst, c, epsilon)
    c, epsilon = params.c, params.epsilon  # override wins when both are given
    m, d = inst.vectors.shape
    stats = SolveStats()
    ca = c * math.sqrt(inst.alpha)
    lo_bound = (1.0 - epsilon) * (0.5 - ca)
    hi_bound = (1.0 + epsilon) * (0.5 + ca)
    eta = rounding_eta(inst.vectors)
    band = [lo_bound - 2 * eta, hi_bound + 2 * eta, 5e-324]  # x < 5e-324 exactly when x <= 0
    root = new_state(d, params.mu, params.delta)  # checks mu and delta on either path
    budget(d, params.mu)  # d = 1 has no sampling budget: raise before any search
    certified = saturation_margin(inst, params) >= 1.0
    # A block: (P, membership) and, on the sampled path, (B, sample count, ledger hash).
    roots = (np.zeros((1, d, d)), np.zeros((1, m), dtype=bool))
    if not certified:
        roots += (root.b.a[None], np.zeros(1, dtype=np.int64),
                  np.array([root.ledger_hash], dtype=np.uint64))
    outers = np.zeros((m + 1, d, d))  # v_m = 0 for the collect pass
    outers[:m] = inst.vectors[:, :, None] * inst.vectors[:, None, :]

    def search(i):
        """Search i of the module docstring: its depth-i blocks, in lex order."""

        def drop(k, block):
            """Count the popped nodes and size-filter them; above depth i the
            kept ones count as pruned until split takes them back."""
            n = len(block[0])
            stats.nodes += n
            if node_limit is not None and stats.nodes > node_limit:
                raise TooLarge(f"solve exceeded node limit {node_limit}")
            keep = None if certified or k == m else block[3] <= params.n
            kept = n if keep is None else int(np.count_nonzero(keep))
            stats.size_filtered += n - kept
            if k < i:
                stats.pruned += kept
            return keep if kept < n else None

        def split(k, block):
            """The draws: a keep has both children, (S, old) then (S', new), a
            skip only (S', old); certified, p = 1.0 and no state is carried."""
            stats.pruned -= len(block[0])
            if certified:
                return None, ()
            prob = stack_probabilities(block[2], root.mu, root.shift, inst.vectors[k])
            kept = prob >= 1.0
            part = np.flatnonzero((prob > 0.0) & (prob < 1.0))
            kept[part] = prng.first_uniforms(seed, (prng.TAG_SOLVER, k),
                                             block[4][part]) <= prob[part]
            b, ledger = block[2].copy(), block[4].copy()
            weights = 1.0 / prob[kept]
            b[kept] += weights[:, None, None] * outers[k]
            ledger[kept] = fold_ledger_hashes(ledger[kept], k, weights)
            return kept, (b, block[3] + kept, ledger)

        return band_search(outers[:i + 1], roots, band, eta, drop, split, lex=True)

    for i in range(m):
        stats.levels_processed += 1
        gated = 0
        for block in search(i):
            rows = block[1] | (np.arange(m) == i)
            lo, hi = eig_extremes_stack(inst.grams(rows))
            gated += len(rows)
            stats.peak_level_size = max(stats.peak_level_size, gated)
            hits = np.flatnonzero((lo_bound <= lo) & (hi <= hi_bound))
            if hits.size:  # the first gate hit in lex order wins
                hit = tuple(np.flatnonzero(rows[hits[0]]).tolist())
                report = check_subset(inst, hit, c, epsilon)
                if not report.satisfies_eq2:
                    raise InternalInvariantError(
                        f"gated subset {hit} fails the band on independent recheck")
                return SolveOutcome("found", report.subset, report, stats)

    final = ([tuple(np.flatnonzero(row).tolist()) for block in search(m) for row in block[1]]
             if collect_subsets else None)
    return SolveOutcome("not-found", None, None, stats, final_subsets=final)

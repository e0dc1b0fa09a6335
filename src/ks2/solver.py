"""Randomised level-set search for a subset within the epsilon-relaxed band.

The search expands level sets L_0, L_1, ..., L_m.  Each entry of a level is
a pair (representative subset S, sparsifier state B).  Processing vector i
against an entry first gates S' = S + {i} directly on the eigenvalues of
A_{S'} (exact comparison, zero slack); if the gate fails, the entry's
sparsifier observes v_i with a deterministic per-path uniform draw, and the
children are inserted into the next level:

  - on a keep:   both (S, old state) and (S', new state);
  - on a skip:   only (S', old state).

Entries whose sparsifier already holds more than n sampled vectors are
dropped (size filter).  Any subset returned has been re-checked from
scratch, so a "found" outcome is sound unconditionally; "not found" can be
wrong only when a valid subset exists and every sampling path missed it.
Under certified saturation (below) it cannot: "not found" is then exact.

A level is stored as arrays in entry order: a bool membership matrix
(L, m) and the pruning bounds top and floor (L,).  Each level makes one
batched gate eigensolve and one eigensolve for the floors that the parent's
floor does not certify.  The sampled path also carries, per entry, the
sparsifier sum B (L, d, d), the sample count and the ledger hash; it applies
the size filter and makes one batched shifted solve for the sampling
probabilities and one vectorised draw, only for entries with 0 < p < 1 (a
draw cannot change a keep at p = 1).  A certified run keeps every entry's
two children and holds none of those arrays.  Every step is bit-identical to
the per-entry path through sparsifier.observe, which
tests/reference_solver.py keeps as the reference solver.

No two entries of a level ever hold the same ledger, so paths never need
merging.  By induction: L_0 holds one ledger; each entry passes its ledger
L_j unchanged to exactly one child, and a keep adds L_j + ((i, w),), the
only kind of ledger that contains index i, distinct for distinct L_j; the
size filter only removes entries.  SolveStats.dedup_hits is kept in the
output and always reads 0.

Completion-bound pruning.  At the top of level i, right after the size
filter, an entry is dropped when no descendant can pass the gate; the drops
are counted in SolveStats.pruned.  Every set that the entry or a descendant
gates is some G with S < G <= U = S + {i, ..., m-1}, so A_S <= A_G <= A_U in
the Loewner order, and lambda_max(A_G) >= lambda_max(A_S) and
lambda_min(A_G) <= lambda_min(A_U) hold exactly.  Each entry carries
    top = lambda_max(A_S): 0 at the root; an exclude child keeps its
          parent's, an include child takes the gate's hi;
    floor, for lambda_min(A_U): eigensolved at the root; an include child
          keeps its parent's (the same U); an exclude child, whose U lacks
          v_i, eigensolves A_U unless its parent's floor certifies that it
          cannot be pruned (below).
Let u = 2^-53, T the computed sum of squares of all entries and
eta = (m + 64 d^2 + 2) u (2T + 1).  Every computed eigenvalue of a Gram that
the solver eigensolves is within eta of the exact eigenvalue of A_S, by the
derivation in the ks2.oracle docstring (summation error gamma_m, backward
stability of LAPACK's eigensolver, Weyl's inequality).  With
slack = 2 eta (rounding_slack):
  * top > hi_bound + slack gives exact lambda_max(A_G) > hi_bound + eta, so
    the gate's computed hi for G exceeds hi_bound;
  * a computed floor < lo_bound - slack gives exact lambda_min(A_G) <
    lo_bound - eta, so the gate's computed lo for G is below lo_bound.
Either way no descendant gates.  A surviving entry keeps its ledger hash,
hence its draws (keyed by seed, level and hash), and its place in entry
order, so the earliest gate hit of each level, and with it status, subset
and report, are those of the unpruned search.  Only peak_level_size, pruned,
size_filtered (entries that would have been filtered below a pruned one) and
the level at which max_level_size fires can differ.  The final level is not
pruned.

The certificate.  An exclude child made at level i has U = U' - {i}, with U'
its parent's U, and Weyl's inequality gives lambda_min(A_U) >=
lambda_min(A_U') - ||v_i||^2.  The child's floor is first set to its parent's
floor minus v_i . v_i, and is eigensolved only when that is below
lo_bound + 2 slack.  The root's floor and every eigensolved floor are within
eta of the exact lambda_min(A_U).  Any other floor comes from an eigensolved
one by a chain of such subtractions, in which each index is subtracted at
most once; their rounding and that of the squared norms add at most
(m + d) u (2T + 1) <= eta, so every floor is at most 2 eta above the exact
lambda_min(A_U).  A certified floor, at least lo_bound + 4 eta, then leaves
the exact lambda_min(A_U) at least lo_bound + 2 eta, and every computed value
of it at least lo_bound + eta: the certified entry is kept exactly when an
eigensolved floor would keep it.

Certified saturation.  Let Lam = lambda_max(A_all) exactly, t its computed
value from the root's eigensolve (|t - Lam| <= eta), lam the ridge,
kappa = (t + eta + lam) / lam >= (Lam + lam) / lam, N = 2T and
g = (m + 3 d + 8) u (N + d lam) / lam.  Suppose every weight so far is 1.0.
Then an entry's sum B is the floating-point sum of the rounded v_j v_j^T,
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
1.0, so the next level satisfies the hypothesis, and by induction so does
every draw of the run.  A sample count is then |S| <= i at level i, so the
size filter never fires while n >= m.  solve takes this certified path when
saturation_margin is at least 1; the margin is 0 when d = 1, n < m or
sigma > 1/4.  It keeps both children of every entry at weight 1, skipping
the shifted solves, the draws, the ledger hashes and the size filter, none
of which can change a result; the gate, the prune and the floor eigensolves
are those of the sampled path, so every outcome, stats included, is that
path's.  As no entry is ever lost to a skip or the filter, every nonempty
subset G of {0, ..., m-1} is either gated at the level of its largest index
or lies below an entry the completion bound dropped, which proves that no
descendant gates.  A certified "not found" therefore shows that the gate's
computed extremes of every A_G miss the relaxed band: up to the gate's
eigenvalue rounding (eta), no subset satisfies eq2.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import prng
from .errors import InfeasibleParameters, InternalInvariantError, ResourceExhausted
from .instance import Instance, SubsetReport, check_subset, validate
from .linalg import eig_extremes_stack, rounding_eta
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
    max_level_size: Optional[int] = None

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
    """Counters of one solve.  peak_level_size, like the max_level_size cap,
    counts the entries of a level that survive the size filter and the prune;
    pruned counts the entries the completion bound dropped."""

    levels_processed: int = 0
    peak_level_size: int = 0
    size_filtered: int = 0
    pruned: int = 0
    dedup_hits: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def rounding_slack(inst: Instance) -> float:
    """2 eta: the most by which computed eigenvalues of the Grams of two nested
    subsets can contradict the Loewner order (module docstring)."""
    return 2 * rounding_eta(inst.vectors)


def saturation_margin(inst: Instance, params: SolverParams,
                      top: Optional[float] = None) -> float:
    """b (1 + mu) min_i ||v_i||^2 / (lambda_max(A_all) + lam) over its proven
    rounding factor 1 + 4 sigma (Certified saturation, module docstring).

    At least 1 certifies that every sampling probability of a solve is 1.0
    and that the size filter never fires; 0 when no certificate can hold
    (d = 1, n < m, mu^2 underflows, sigma > 1/4).  top is the computed
    lambda_max(A_all), or None to eigensolve it here.
    """
    m, d = inst.vectors.shape
    if d < 2 or params.n < m or params.mu**2 == 0:
        return 0.0
    if top is None:
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
          threads: int = 1) -> SolveOutcome:
    """Run the level-set search; deterministic per (instance, c, epsilon, seed, params).

    collect_subsets records the final level's representative subsets in
    final_subsets.  threads is ignored (each level is processed by batched
    kernels in the calling thread); it stays only because the benchmark's
    workloads pass threads=1.
    """
    if not inst.validated:
        inst = validate(inst)
    params = params_override if params_override is not None else derive_params(inst, c, epsilon)
    c, epsilon = params.c, params.epsilon  # override wins when both are given
    m = inst.num_vectors
    stats = SolveStats()
    ca = c * math.sqrt(inst.alpha)
    lo_bound = (1.0 - epsilon) * (0.5 - ca)
    hi_bound = (1.0 + epsilon) * (0.5 + ca)

    slack = rounding_slack(inst)
    tails = np.arange(m) >= np.arange(m + 1)[:, None]  # row j: the indices j, ..., m-1

    root = new_state(inst.dim, params.mu, params.delta)  # checks mu and delta on either path
    floor, top_all = eig_extremes_stack(inst.grams(tails[:1]))
    certified = saturation_margin(inst, params, float(top_all[0])) >= 1.0
    members, top = np.zeros((1, m), dtype=bool), np.zeros(1)
    if not certified:  # the sampled path's sparsifier sums, sample counts and ledger hashes
        sums, counts = root.b.a[None], np.zeros(1, dtype=np.int64)
        hashes = np.array([root.ledger_hash], dtype=np.uint64)
    for i in range(m):
        alive = np.full(len(members), True) if certified else counts <= params.n
        stats.size_filtered += int(np.count_nonzero(~alive))
        live = alive & ~((top > hi_bound + slack) | (floor < lo_bound - slack))
        stats.pruned += int(np.count_nonzero(alive & ~live))
        members, top, floor = members[live], top[live], floor[live]
        if not certified:
            sums, counts, hashes = sums[live], counts[live], hashes[live]
        _note_level(stats, params.max_level_size, i, len(members))
        stats.levels_processed += 1

        grown = members.copy()
        grown[:, i] = True
        lo, hi = eig_extremes_stack(inst.grams(grown))
        hits = np.flatnonzero((lo_bound <= lo) & (hi <= hi_bound))
        if hits.size:  # earliest gate hit in entry order wins
            hit = tuple(np.flatnonzero(grown[hits[0]]).tolist())
            report = check_subset(inst, hit, c, epsilon)
            if not report.satisfies_eq2:
                raise InternalInvariantError(
                    f"gated subset {hit} fails the band on independent recheck")
            return SolveOutcome("found", report.subset, report, stats)

        v = inst.vectors[i]
        if certified:  # p = 1.0 exactly: every entry keeps v_i at weight 1
            kept = np.full(len(members), True)
        else:
            p = stack_probabilities(sums, root.mu, root.shift, v)
            kept = p >= 1.0
            part = np.flatnonzero((p > 0.0) & (p < 1.0))
            kept[part] = prng.first_uniforms(seed, (prng.TAG_SOLVER, i), hashes[part]) <= p[part]

        # Children in entry order: a keep emits (S, old) then (S', new), a
        # skip emits (S', old); either way S' is the entry's last child.
        parent = np.repeat(np.arange(len(kept)), 1 + kept)
        last = np.cumsum(1 + kept) - 1
        fresh = last[kept]
        members, top, floor = members[parent], top[parent], floor[parent]
        members[last, i] = True
        top[last] = hi
        if not certified:
            weights = 1.0 / p[kept]
            sums, counts, hashes = sums[parent], counts[parent], hashes[parent]
            sums[fresh] += weights[:, None, None] * np.outer(v, v)
            counts[fresh] += 1
            hashes[fresh] = fold_ledger_hashes(hashes[fresh], i, weights)
        if i + 1 < m:  # exclude children lose v_i from U; the final level is not pruned
            out = fresh - 1
            floor[out] -= v @ v
            need = out[floor[out] < lo_bound + 2 * slack]
            floor[need] = eig_extremes_stack(inst.grams(members[need] | tails[i + 1]))[0]

    _note_level(stats, params.max_level_size, m, len(members))
    final = [tuple(np.flatnonzero(row).tolist()) for row in members] if collect_subsets else None
    return SolveOutcome("not-found", None, None, stats, final_subsets=final)


def _note_level(stats: SolveStats, cap: Optional[int], level: int, size: int) -> None:
    """Record a level's size after the size filter and the prune; enforce the cap."""
    stats.peak_level_size = max(stats.peak_level_size, size)
    if cap is not None and size > cap:
        raise ResourceExhausted(f"level {level} holds {size} entries > cap {cap}", stats=stats)

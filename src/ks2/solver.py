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

A level is stored as arrays in entry order: a bool membership matrix
(L, m), the sparsifier sums B (L, d, d), the sample counts, the ledger
hashes and the pruning bounds top and floor (L,).  Each level makes one
batched gate eigensolve, one batched shifted solve for the sampling
probabilities, one vectorised draw, only for entries with 0 < p < 1 (a draw
cannot change a keep at p = 1), and one eigensolve for the floors that the
parent's floor does not certify.  Every step
is bit-identical to the per-entry path through sparsifier.observe, which
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
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import prng
from .errors import InfeasibleParameters, InternalInvariantError, ResourceExhausted
from .instance import Instance, SubsetReport, check_subset, validate
from .linalg import eig_extremes_stack
from .sparsifier import fold_ledger_hashes, new_state, stack_probabilities

DEFAULT_LEVEL_CONSTANT = 40.0


@dataclass(frozen=True)
class SolverParams:
    """Derived run parameters.

    mu = epsilon/6 exactly; lam = min(c*sqrt(alpha), 1/2 - c*sqrt(alpha));
    the sparsifier delta is mu * lam, so its ridge delta/mu equals lam;
    n = ceil(C d ln(d) ln(1/lam) / mu^2), the size-filter bound.  The
    sampling budget is sparsifier._budget(d, mu).
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
    m, d = inst.vectors.shape
    return 2 * (m + 64 * d * d + 2) * 2.0 ** -53 * (2 * float(np.sum(inst.vectors**2)) + 1)


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

    root = new_state(inst.dim, params.mu, params.delta)
    members = np.zeros((1, m), dtype=bool)
    sums = root.b.a[None]
    counts = np.zeros(1, dtype=np.int64)
    hashes = np.array([root.ledger_hash], dtype=np.uint64)
    top, floor = np.zeros(1), eig_extremes_stack(inst.grams(tails[:1]))[0]
    for i in range(m):
        alive = counts <= params.n
        stats.size_filtered += int(np.count_nonzero(~alive))
        live = alive & ~((top > hi_bound + slack) | (floor < lo_bound - slack))
        stats.pruned += int(np.count_nonzero(alive & ~live))
        members, sums, counts, hashes = members[live], sums[live], counts[live], hashes[live]
        top, floor = top[live], floor[live]
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
        p = stack_probabilities(sums, root.mu, root.shift, v)
        kept = p >= 1.0
        part = np.flatnonzero((p > 0.0) & (p < 1.0))
        kept[part] = prng.first_uniforms(seed, (prng.TAG_SOLVER, i), hashes[part]) <= p[part]
        weights = 1.0 / p[kept]

        # Children in entry order: a keep emits (S, old) then (S', new), a
        # skip emits (S', old); either way S' is the entry's last child.
        parent = np.repeat(np.arange(len(p)), 1 + kept)
        last = np.cumsum(1 + kept) - 1
        fresh = last[kept]
        members, sums, counts, hashes = members[parent], sums[parent], counts[parent], hashes[parent]
        top, floor = top[parent], floor[parent]
        members[last, i] = True
        sums[fresh] += weights[:, None, None] * np.outer(v, v)
        counts[fresh] += 1
        hashes[fresh] = fold_ledger_hashes(hashes[fresh], i, weights)
        top[last] = hi
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

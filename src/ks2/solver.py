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
(L, m), the sparsifier sums B (L, d, d), the sample counts and the ledger
hashes.  Each level makes one batched gate eigensolve, one batched shifted
solve for the sampling probabilities and one vectorised draw, only for
entries with 0 < p < 1 (a draw cannot change a keep at p = 1).  Every step
is bit-identical to the per-entry path through sparsifier.observe, which
tests/reference_solver.py keeps as the reference solver.

No two entries of a level ever hold the same ledger, so paths never need
merging.  By induction: L_0 holds one ledger; each entry passes its ledger
L_j unchanged to exactly one child, and a keep adds L_j + ((i, w),), the
only kind of ledger that contains index i, distinct for distinct L_j; the
size filter only removes entries.  SolveStats.dedup_hits is kept in the
output and always reads 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    levels_processed: int = 0
    peak_level_size: int = 0
    size_filtered: int = 0
    dedup_hits: int = 0

    def to_dict(self) -> dict:
        return {
            "levels_processed": self.levels_processed,
            "peak_level_size": self.peak_level_size,
            "size_filtered": self.size_filtered,
            "dedup_hits": self.dedup_hits,
        }


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
    stats = SolveStats(peak_level_size=1)
    ca = c * math.sqrt(inst.alpha)
    lo_bound = (1.0 - epsilon) * (0.5 - ca)
    hi_bound = (1.0 + epsilon) * (0.5 + ca)

    root = new_state(inst.dim, params.mu, params.delta)
    members = np.zeros((1, m), dtype=bool)
    sums = root.b.a[None]
    counts = np.zeros(1, dtype=np.int64)
    hashes = np.array([root.ledger_hash], dtype=np.uint64)
    for i in range(m):
        alive = counts <= params.n
        stats.size_filtered += int(np.count_nonzero(~alive))
        members, sums, counts, hashes = members[alive], sums[alive], counts[alive], hashes[alive]
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
        members[last, i] = True
        sums[fresh] += weights[:, None, None] * np.outer(v, v)
        counts[fresh] += 1
        hashes[fresh] = fold_ledger_hashes(hashes[fresh], i, weights)

        stats.peak_level_size = max(stats.peak_level_size, len(parent))
        if params.max_level_size is not None and len(parent) > params.max_level_size:
            raise ResourceExhausted(
                f"level {i + 1} holds {len(parent)} entries > cap {params.max_level_size}",
                stats=stats)

    final = [tuple(np.flatnonzero(row).tolist()) for row in members] if collect_subsets else None
    return SolveOutcome("not-found", None, None, stats, final_subsets=final)

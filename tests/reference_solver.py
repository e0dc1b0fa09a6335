"""Per-entry reference for ks2.solver.solve (test-only).

This is the level-set search of the paper, level by level: one Python
object per level entry, one gate eigensolve and one sparsifier.observe call
per entry, and an explicit dedup pass on ledger tuples.  Its completion-bound
prune eigensolves A_S and A_{S + {i, ..., m-1}} of every entry from scratch
at the top of each level, with the slack of reference_oracle.rounding_bound.
The tests compare the depth-first solver against it: status, subset,
report, final_subsets, levels_processed and dedup_hits.  Its other stats
count level entries, where the solver's count search nodes.  prune=False
gives the unpruned search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ks2 import prng
from ks2.errors import InternalInvariantError, TooLarge
from ks2.instance import Instance, check_subset, validate
from ks2.solver import SolveOutcome, SolverParams, SolveStats, derive_params
from ks2.sparsifier import SparsifierState, new_state, observe

from reference_oracle import rounding_bound


@dataclass(frozen=True)
class LevelEntry:
    """A representative subset paired with the sparsifier state for its path."""

    subset: tuple[int, ...]
    state: SparsifierState


def _eig(inst, subset) -> np.ndarray:
    rows = inst.vectors[list(subset)]
    return np.linalg.eigvalsh(rows.T @ rows)


def _can_gate(inst, entry: LevelEntry, i: int, lo_bound: float, hi_bound: float,
              slack: float) -> bool:
    """False when the completion bound rules out every set the entry can still gate."""
    top = _eig(inst, entry.subset)[-1]
    floor = _eig(inst, entry.subset + tuple(range(i, inst.num_vectors)))[0]
    return not (top > hi_bound + slack or floor < lo_bound - slack)


def _process_entry(inst, entry: LevelEntry, i: int, lo_bound: float, hi_bound: float,
                   seed: int, force_sample: bool):
    """Gate S + {i}; if it fails, observe v_i and emit the child entries."""
    grown = entry.subset + (i,)
    eig = _eig(inst, grown)
    if lo_bound <= eig[0] and eig[-1] <= hi_bound:
        return grown, None
    if force_sample:
        u = 0.0
    else:
        u = prng.Stream(prng.derive_key(seed, prng.TAG_SOLVER, i, entry.state.ledger_hash)).uniform()
    state, sampled = observe(entry.state, i, inst.vectors[i], u)
    if sampled:
        children = [LevelEntry(entry.subset, entry.state), LevelEntry(grown, state)]
    else:
        children = [LevelEntry(grown, entry.state)]
    return None, children


def reference_solve(inst: Instance, c: float, epsilon: float, seed: int,
                    params_override: Optional[SolverParams] = None,
                    force_sample: bool = False,
                    collect_subsets: bool = False,
                    prune: bool = True,
                    node_limit: Optional[int] = None) -> SolveOutcome:
    """Same contract as ks2.solver.solve, one entry at a time.  node_limit
    caps the entries of every level, summed, and raises solve's TooLarge."""
    if not inst.validated:
        inst = validate(inst)
    params = params_override if params_override is not None else derive_params(inst, c, epsilon)
    c, epsilon = params.c, params.epsilon
    m = inst.num_vectors
    stats = SolveStats()
    ca = c * math.sqrt(inst.alpha)
    lo_bound = (1.0 - epsilon) * (0.5 - ca)
    hi_bound = (1.0 + epsilon) * (0.5 + ca)
    slack = rounding_bound(inst.vectors)

    level = [LevelEntry((), new_state(inst.dim, params.mu, params.delta))]
    for i in range(m):
        stats.nodes += len(level)
        if node_limit is not None and stats.nodes > node_limit:
            raise TooLarge(f"solve exceeded node limit {node_limit}")
        survivors = [e for e in level if e.state.sample_count <= params.n]
        stats.size_filtered += len(level) - len(survivors)
        gating = [e for e in survivors
                  if not prune or _can_gate(inst, e, i, lo_bound, hi_bound, slack)]
        stats.pruned += len(survivors) - len(gating)
        stats.peak_level_size = max(stats.peak_level_size, len(gating))
        stats.levels_processed += 1
        results = [_process_entry(inst, e, i, lo_bound, hi_bound, seed, force_sample)
                   for e in gating]

        for hit, _ in results:  # earliest gate hit in entry order wins
            if hit is not None:
                report = check_subset(inst, hit, c, epsilon)
                if not report.satisfies_eq2:
                    raise InternalInvariantError(
                        f"gated subset {hit} fails the band on independent recheck")
                return SolveOutcome("found", report.subset, report, stats)

        next_level: list[LevelEntry] = []
        seen: dict[tuple, int] = {}
        for _, children in results:
            for child in children:
                key = child.state.ledger
                if key in seen:
                    stats.dedup_hits += 1
                    continue
                seen[key] = len(next_level)
                next_level.append(child)
        level = next_level

    final = [e.subset for e in level] if collect_subsets else None
    return SolveOutcome("not-found", None, None, stats, final_subsets=final)

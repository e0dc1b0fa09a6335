"""In-memory span recorder for the traced run, and the per-layer metrics read from it.

The recorder wraps public functions of the ks2 modules (plus
``numpy.linalg.eigvalsh``, which the solver gate and the oracle call
directly) by rebinding the module attributes that the package looks up at
call time.  Every call made while the recorder is active becomes one span:
name, start, end, parent span, task id, and one number noted from the call
(a stack size, a sampling probability, a keep flag).  Spans live in typed
arrays until the traced pass ends; nothing is written while work is timed.
A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from ks2 import instance, linalg, oracle, prng, reduction, solver, sparsifier

SETUP_TASK = -1  # task id of spans recorded while inputs are built


def _stack_size(out):
    return out.shape[0] if out.ndim == 2 else 1


def _probability(out):
    return out


def _kept(out):
    return 1.0 if out[1] else 0.0


def targets():
    """(span name, owner, attribute, note) for every call the traced run records."""
    return [
        ("solver.solve", solver, "solve", None),
        ("sparsifier.observe", sparsifier, "observe", _kept),
        ("sparsifier.sample_probability", sparsifier, "sample_probability", _probability),
        ("linalg.spd_solve", linalg, "spd_solve", None),
        ("linalg.psd_sandwich_check", linalg, "psd_sandwich_check", None),
        ("prng.derive_key", prng, "derive_key", None),
        ("prng.uniform", prng.Stream, "uniform", None),
        ("prng.mix64", prng, "mix64", None),
        ("oracle.brute_force_w", oracle, "brute_force_w", None),
        ("oracle.branch_bound_w", oracle, "branch_bound_w", None),
        ("reduction.nae3sat_to_ks_form", reduction, "nae3sat_to_ks_form", None),
        ("reduction.ks_form_to_instance", reduction, "ks_form_to_instance", None),
        ("reduction.nae_brute_solve", reduction, "nae_brute_solve", None),
        ("reduction.find_violation", reduction, "find_violation", None),
        ("instance.gen_planted", instance, "gen_planted", None),
        ("instance.gen_random", instance, "gen_random", None),
        ("instance.check_subset", instance, "check_subset", None),
        ("numpy.eigvalsh", np.linalg, "eigvalsh", _stack_size),
    ]


class Tracer:
    """Records spans for the wrapped calls while ``active`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.task = SETUP_TASK
        self.active = False
        self._name = array("B")
        self._parent = array("i")
        self._task = array("i")
        self._start = array("q")
        self._end = array("q")
        self._value = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, tasks = self._name, self._parent, self._task
        starts, ends, values, stack = self._start, self._end, self._value, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            tasks.append(self.task)
            ends.append(0)
            values.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                values[idx] = note(out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every target in each ks2 module that holds it; restore on exit."""
        modules = [m for k, m in sys.modules.items() if k == "ks2" or k.startswith("ks2.")]
        try:
            for name, owner, attr, note in targets():
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, note)
                holders = [owner] + [m for m in modules
                                     if m is not owner and getattr(m, attr, None) is original]
                for holder in holders:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            self.active = True
            yield self
        finally:
            self.active = False
            while self._patches:
                holder, attr, original = self._patches.pop()
                setattr(holder, attr, original)

    @contextmanager
    def paused(self):
        """Leave the benchmark's own checks out of the trace."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def table(self) -> dict:
        """Spans as numpy columns, with durations and self times in seconds."""
        name = np.frombuffer(self._name, dtype=np.uint8)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        dur = (end - start) * 1e-9
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        parent_name = np.full(len(name), -1, dtype=np.int16)
        parent_name[nested] = name[parent[nested]]
        return {
            "name": name,
            "parent": parent,
            "parent_name": parent_name,
            "task": np.frombuffer(self._task, dtype=np.int32),
            "dur": dur,
            "self": dur - child,
            "value": np.frombuffer(self._value, dtype=np.float64),
        }

    def summary(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total s, self s) of the spans recorded inside tasks."""
        t = self.table()
        rows = []
        for i, name in enumerate(self.names):
            mask = (t["name"] == i) & (t["task"] >= 0)
            rows.append((name, int(mask.sum()), float(t["dur"][mask].sum()),
                         float(t["self"][mask].sum())))
        return rows


# (metric name, unit) of the traced run, in print order.
LAYER_METRICS = [
    ("solver.entries", "count"), ("solver.levels", "count"), ("solver.peak_level", "count"),
    ("solver.self_s", "s"), ("solver.gate_calls", "count"), ("solver.gate_s", "s"),
    ("solver.recheck_s", "s"), ("solver.dedup_hits", "count"), ("solver.size_filtered", "count"),
    ("sparsifier.observe_calls", "count"), ("sparsifier.observe_self_s", "s"),
    ("sparsifier.kept_ratio", "ratio"), ("sparsifier.saturated_ratio", "ratio"),
    ("linalg.spd_solve_calls", "count"), ("linalg.spd_solve_s", "s"), ("linalg.sandwich_s", "s"),
    ("prng.draw_calls", "count"), ("prng.draw_s", "s"),
    ("prng.mix64_calls", "count"), ("prng.mix64_s", "s"),
    ("oracle.gray_eig_calls", "count"), ("oracle.gray_stack", "count"),
    ("oracle.gray_eig_s", "s"), ("oracle.gray_self_s", "s"), ("oracle.subsets_per_s", "1/s"),
    ("oracle.bb_nodes", "count"), ("oracle.bb_leaves", "count"), ("oracle.bb_prune_ratio", "ratio"),
    ("oracle.bb_eig_s", "s"), ("oracle.bb_us_per_node", "us"), ("oracle.bb_self_s", "s"),
    ("reduction.rewrite_s", "s"), ("reduction.build_s", "s"), ("reduction.nae_solve_s", "s"),
    ("reduction.find_violation_calls", "count"), ("reduction.find_violation_us", "us"),
    ("instance.gen_s", "s"), ("instance.check_subset_calls", "count"),
    ("instance.check_subset_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.unattributed_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced, untraced) -> dict[str, float]:
    """Per-layer metrics of a traced pass, per round (one pass over the task list).

    ``traced`` and ``untraced`` are the run's two passes over the same task
    list; the program's own counters (SolveStats, leaves, subsets examined)
    come from the task records of one traced round.
    """
    t = tracer.table()
    ids = {n: i for i, n in enumerate(tracer.names)}
    timed = t["task"] >= 0
    rounds = len(traced.round_times)

    def sel(name, parent=None, in_task=True):
        mask = t["name"] == ids[name]
        if parent is not None:
            mask &= t["parent_name"] == ids[parent]
        return mask & timed if in_task else mask & (t["task"] == SETUP_TASK)

    def count(mask):
        return int(mask.sum()) / rounds

    def total(mask, col="dur"):
        return float(t[col][mask].sum()) / rounds

    def layer_self(prefix):
        layer = [i for n, i in ids.items() if n.startswith(prefix)]
        return total(np.isin(t["name"], layer) & timed, "self")

    records = [r for r in traced.records if r is not None]
    stats = [r["stats"] for r in records if "stats" in r]
    leaves = sum(r["leaves"] for r in records if "leaves" in r)
    examined = sum(r["examined"] for r in records if "examined" in r)

    gate = sel("numpy.eigvalsh", "solver.solve")
    observe = sel("sparsifier.observe")
    probability = sel("sparsifier.sample_probability")
    gray = sel("numpy.eigvalsh", "oracle.brute_force_w")
    gray_calls = sel("oracle.brute_force_w")
    bb = sel("oracle.branch_bound_w")
    bb_eig = sel("numpy.eigvalsh", "oracle.branch_bound_w")
    # Branch-and-bound evaluates one eigvalsh per leaf and two per internal
    # node; each call pops 1 + 2 * (expanded nodes) nodes in all.
    internal = (bb_eig.sum() - leaves * rounds) / 2
    popped = internal + leaves * rounds
    expanded = (popped - bb.sum()) / 2
    fv = sel("reduction.find_violation")
    top = (t["parent"] < 0) & timed
    gen = sel("instance.gen_planted", in_task=False) | sel("instance.gen_random", in_task=False)

    return {
        "solver.entries": total(gate, "value"),
        "solver.levels": sum(s["levels_processed"] for s in stats),
        "solver.peak_level": max((s["peak_level_size"] for s in stats), default=0),
        "solver.self_s": total(sel("solver.solve"), "self"),
        "solver.gate_calls": count(gate),
        "solver.gate_s": total(gate),
        "solver.recheck_s": total(sel("instance.check_subset", "solver.solve")),
        "solver.dedup_hits": sum(s["dedup_hits"] for s in stats),
        "solver.size_filtered": sum(s["size_filtered"] for s in stats),
        "sparsifier.observe_calls": count(observe),
        "sparsifier.observe_self_s": layer_self("sparsifier."),
        "sparsifier.kept_ratio": _ratio(t["value"][observe].sum(), observe.sum()),
        "sparsifier.saturated_ratio": _ratio((t["value"][probability] == 1.0).sum(),
                                             probability.sum()),
        "linalg.spd_solve_calls": count(sel("linalg.spd_solve")),
        "linalg.spd_solve_s": total(sel("linalg.spd_solve")),
        "linalg.sandwich_s": total(sel("linalg.psd_sandwich_check")),
        "prng.draw_calls": count(sel("prng.uniform")),
        "prng.draw_s": total(sel("prng.uniform")) + total(sel("prng.derive_key")),
        "prng.mix64_calls": count(sel("prng.mix64")),
        "prng.mix64_s": total(sel("prng.mix64")),
        "oracle.gray_eig_calls": count(gray),
        "oracle.gray_stack": _ratio(t["value"][gray].sum(), gray.sum()),
        "oracle.gray_eig_s": total(gray),
        "oracle.gray_self_s": total(gray_calls, "self"),
        "oracle.subsets_per_s": _ratio(examined * rounds, t["dur"][gray_calls].sum()),
        "oracle.bb_nodes": popped / rounds,
        "oracle.bb_leaves": leaves,
        "oracle.bb_prune_ratio": _ratio(internal - expanded, internal),
        "oracle.bb_eig_s": total(bb_eig),
        "oracle.bb_us_per_node": _ratio(t["dur"][bb].sum() * 1e6, popped),
        "oracle.bb_self_s": total(bb, "self"),
        "reduction.rewrite_s": total(sel("reduction.nae3sat_to_ks_form")),
        "reduction.build_s": total(sel("reduction.ks_form_to_instance")),
        "reduction.nae_solve_s": total(sel("reduction.nae_brute_solve")),
        "reduction.find_violation_calls": count(fv),
        "reduction.find_violation_us": _ratio(t["dur"][fv].sum() * 1e6, fv.sum()),
        "instance.gen_s": float(t["dur"][gen].sum()),
        "instance.check_subset_calls": count(sel("instance.check_subset")),
        "instance.check_subset_s": total(sel("instance.check_subset")),
        "trace.overhead_ratio": (statistics.median(traced.round_times)
                                 / statistics.median(untraced.round_times) - 1.0),
        "trace.unattributed_ratio": 1.0 - _ratio(t["dur"][top].sum(), sum(traced.task_times)),
    }

"""What the benchmark's own files use of ks2 must keep existing.

perfbench/workloads.py and perfbench/spans.py are read as source, not run:
every ks2 attribute they name must resolve, every call they make to a ks2
function must bind to its signature, and every attribute the tracer rebinds
by name must exist on its owner.  Running the benchmark's self-test would
check the same and more, but takes about 40 s.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

FILES = ("workloads.py", "spans.py")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _ks2_names(tree):
    """Local name -> ks2 module, for every `from ks2 import ...` of the file."""
    return {alias.asname or alias.name: importlib.import_module(f"ks2.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "ks2"
            for alias in node.names}


def _resolve(node, names):
    """(dotted text, object) of a Name/Attribute chain rooted at a ks2 module, else None."""
    if isinstance(node, ast.Name):
        return (node.id, names[node.id]) if node.id in names else None
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        if owner is not None:
            text, obj = owner
            assert hasattr(obj, node.attr), f"{text}.{node.attr} is gone"
            return f"{text}.{node.attr}", getattr(obj, node.attr)
    return None


def _uses(name):
    tree = ast.parse((PERFBENCH / name).read_text())
    names = _ks2_names(tree)
    assert names, f"{name} imports nothing from ks2"
    return tree, names


@pytest.mark.parametrize("name", FILES)
def test_referenced_attributes_exist(name):
    tree, names = _uses(name)
    for node in ast.walk(tree):
        _resolve(node, names)


@pytest.mark.parametrize("name", FILES)
def test_calls_bind_to_signatures(name):
    tree, names = _uses(name)
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, names)
        if target is None or not callable(target[1]) or inspect.ismodule(target[1]):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        text, fn = target
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{name}:{node.lineno} {text}(...) does not bind") from exc
        bound.add((text, tuple(k.arg for k in node.keywords)))
    if name == "workloads.py":
        assert ("solver.solve", ("seed", "threads")) in bound
        assert ("oracle.brute_force_w", ("threads",)) in bound


def test_traced_targets_exist():
    tree, names = _uses("spans.py")
    targets = [node for node in ast.walk(tree)
               if isinstance(node, ast.Tuple) and len(node.elts) == 4
               and isinstance(node.elts[2], ast.Constant) and isinstance(node.elts[2].value, str)]
    assert len(targets) > 10
    for node in targets:
        owner = _resolve(node.elts[1], names)
        attr = node.elts[2].value
        if owner is not None:  # numpy.linalg is not ks2's to keep
            assert hasattr(owner[1], attr), f"{owner[0]}.{attr} is gone"


def test_observe_reaches_sample_probability_through_the_module(monkeypatch):
    # The tracer rebinds sparsifier.sample_probability; were observe to bind
    # it any other way, the traced sparsifier.saturated_ratio would read 0.
    sparsifier = importlib.import_module("ks2.sparsifier")
    seen = []
    original = sparsifier.sample_probability

    def spy(state, v):
        seen.append(original(state, v))
        return seen[-1]

    monkeypatch.setattr(sparsifier, "sample_probability", spy)
    state = sparsifier.new_state(2, 1.0, 1.0)
    state, kept = sparsifier.observe(state, 0, [1.0, 0.0], 1.0)
    assert kept and seen == [1.0]

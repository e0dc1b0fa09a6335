import functools
import json
import operator

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ks2 import cli
from ks2.cli import main
from ks2.instance import gen_planted, gen_random, instance_to_json, load_instance
from ks2.oracle import branch_bound_w
from ks2.reduction import F_SAT3, F_UNSAT4, emit_dimacs, ks_form_to_instance, layout_to_json


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text):
    """json.loads that rejects the NaN / Infinity / -Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


# "exhaustive": the default --node-limit, which covers a full search tree over
# DEFAULT_M_LIMIT vectors; "branch-bound": an explicit, smaller --node-limit.
NODE_LIMIT_FLAGS = {"exhaustive": [], "branch-bound": ["--node-limit", "1000000"]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, strict_loads(out) if out else None


class TestGen:
    def test_planted_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, res = run(capsys, "gen", "planted", "--d", "3", "--k", "4",
                        "--seed", "1", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert res["d"] == 3 and res["m"] == 8
        assert len(res["planted"]) == 4

    def test_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "random", "--d", "3", "--m", "8", "--seed", "5", "--out", str(a))
        run(capsys, "gen", "random", "--d", "3", "--m", "8", "--seed", "5", "--out", str(b))
        assert a.read_text() == b.read_text()


class TestSolveVerify:
    def test_solve_then_verify_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        subset = tmp_path / "s.json"
        run(capsys, "gen", "planted", "--d", "3", "--k", "5", "--seed", "2",
            "--out", str(inst))
        code, res = run(capsys, "solve", str(inst), "--c", "0.1", "--epsilon", "0.3",
                        "--seed", "7", "--subset-out", str(subset))
        assert code == 0
        assert res["status"] == "found"
        code, rep = run(capsys, "verify", str(inst), "--subset", str(subset),
                        "--c", "0.1", "--epsilon", "0.3")
        assert code == 0
        assert rep["satisfies_eq2"]

    def test_solve_not_found_exits_one(self, tmp_path, capsys):
        from ks2.instance import save_instance
        from conftest import stress_instance
        inst_path = tmp_path / "stress.json"
        save_instance(stress_instance(2), inst_path)
        code, res = run(capsys, "solve", str(inst_path), "--c", "0.1",
                        "--epsilon", "0.1", "--seed", "1")
        assert code == 1
        assert res["status"] == "not-found"
        # Completion-bound pruning keeps 72 of the 512 subsets of the last level.
        assert res["stats"]["pruned"] > 0 and res["stats"]["peak_level_size"] == 72

    def test_bad_file_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "missing.json"),
                     "--c", "0.1", "--epsilon", "0.3", "--seed", "1"])
        capsys.readouterr()
        assert code == 2


class TestOracle:
    def test_oracle_reports_w(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "planted", "--d", "3", "--k", "4", "--seed", "1",
            "--out", str(inst))
        code, res = run(capsys, "oracle", str(inst))
        assert code == 0
        assert res["w"] <= 1e-12
        assert res["examined"] == 2**8
        assert 0 < res["eigensolved"] <= res["nodes"] <= 2**9 - 1
        assert res["cut"] == 0  # a planted instance has no flip symmetry

    def test_oracle_feasibility_exit_codes(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "planted", "--d", "3", "--k", "4", "--seed", "1",
            "--out", str(inst))
        code, res = run(capsys, "oracle", str(inst), "--c", "0.01")
        assert code == 0 and res["feasible_eq1"]

    def test_branch_bound_mode(self, tmp_path, capsys):
        # The CLI's one search reports the counters and w of branch_bound_w.
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "random", "--d", "3", "--m", "9", "--seed", "3",
            "--out", str(inst))
        code, res = run(capsys, "oracle", str(inst), "--node-limit", str(2**10 - 1))
        assert code == 0
        assert res["examined"] == 2**9
        assert 0 < res["eigensolved"] <= res["nodes"] <= 2**10 - 1
        ref = branch_bound_w(load_instance(inst))
        assert res["w"] == ref.w_value and res["nodes"] == ref.nodes
        code2, res2 = run(capsys, "oracle", str(inst))
        assert abs(res["w"] - res2["w"]) <= 1e-12

    def test_oracle_reports_flip_cuts(self, tmp_path, capsys):
        # Every coordinate of the NAE gadget flips; the JSON reports the cut
        # nodes, and no "leaves" key, which the benchmark's trace sums.
        inst = tmp_path / "inst.json"
        inst.write_text(instance_to_json(ks_form_to_instance(F_SAT3)[0]))
        code, res = run(capsys, "oracle", str(inst))
        assert code == 0 and "leaves" not in res
        ref = branch_bound_w(load_instance(inst))
        assert res["w"] == ref.w_value <= 1e-12
        assert 0 < res["cut"] == ref.cut < res["nodes"] == ref.nodes

    def test_branch_bound_node_limit(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "random", "--d", "3", "--m", "12", "--seed", "6",
            "--out", str(inst))
        code = main(["oracle", str(inst), "--node-limit", "3"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "too-large"
        assert "Traceback" not in captured.err
        code, res = run(capsys, "oracle", str(inst), "--c", "0.01")
        assert code == 1 and res["feasible_eq1"] is False


class TestReduce:
    def test_full_pipeline(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(emit_dimacs(F_SAT3))
        inst = tmp_path / "inst.json"
        layout = tmp_path / "layout.json"
        code, res = run(capsys, "reduce", "sat2ks", str(cnf), "--out", str(inst),
                        "--layout", str(layout))
        assert code == 0
        assert res["d"] == res["ksform_clauses"] + res["ksform_vars"]
        assert inst.exists() and layout.exists()
        code, chk = run(capsys, "check", "instance", str(inst))
        assert code == 0 and chk["valid"]

    def test_stage1_only(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(emit_dimacs(F_SAT3))
        out = tmp_path / "g.cnf"
        code, res = run(capsys, "reduce", "nae2ksform", str(cnf), "--out", str(out))
        assert code == 0
        code, chk = run(capsys, "check", "ksform", str(out))
        assert code == 0 and chk["valid"]

    def test_malformed_cnf_usage_error(self, tmp_path, capsys):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        code = main(["reduce", "sat2ks", str(cnf), "--out", str(tmp_path / "x.json")])
        capsys.readouterr()
        assert code == 2


class TestCheck:
    def test_nae_sat_and_unsat(self, tmp_path, capsys):
        sat = tmp_path / "sat.cnf"
        sat.write_text(emit_dimacs(F_SAT3))
        code, res = run(capsys, "check", "nae", str(sat))
        assert code == 0 and res["status"] == "sat"
        assert res["assignment"] == [True, False, True]
        unsat = tmp_path / "unsat.cnf"
        unsat.write_text(emit_dimacs(F_UNSAT4))
        code, res = run(capsys, "check", "nae", str(unsat))
        assert code == 1 and res["status"] == "unsat"

    def test_violation_witness(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(emit_dimacs(F_UNSAT4))
        inst = tmp_path / "inst.json"
        layout = tmp_path / "layout.json"
        run(capsys, "reduce", "ksform2inst", str(cnf), "--out", str(inst),
            "--layout", str(layout))
        subset = tmp_path / "s.json"
        subset.write_text("[0, 4, 5]\n")
        code, res = run(capsys, "check", "violation", str(inst),
                        "--layout", str(layout), "--subset", str(subset))
        assert code == 0
        assert res["violation"]["value"] >= 1 / (8 * 2**0.5) - 1e-9

    def test_satisfying_subset_is_negative(self, tmp_path, capsys):
        from ks2.instance import save_subset
        from ks2.reduction import assignment_to_subset, ks_form_to_instance
        cnf = tmp_path / "f.cnf"
        cnf.write_text(emit_dimacs(F_SAT3))
        inst = tmp_path / "inst.json"
        layout = tmp_path / "layout.json"
        run(capsys, "reduce", "ksform2inst", str(cnf), "--out", str(inst),
            "--layout", str(layout))
        _, lay = ks_form_to_instance(F_SAT3)
        subset = tmp_path / "s.json"
        save_subset(assignment_to_subset(lay, (True, False, True)), subset)
        code, res = run(capsys, "check", "violation", str(inst),
                        "--layout", str(layout), "--subset", str(subset))
        assert code == 1
        assert res["encodes_satisfying"]


class TestMalformedInput:
    """Exit 1 means "verified negative": bad input exits 2 and a crash exits 3."""

    @pytest.mark.parametrize("entries", ["[1.5]", "[true]", '["x"]'])
    def test_non_integer_subset_entry(self, tmp_path, capsys, entries):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "planted", "--d", "3", "--k", "4", "--seed", "1",
            "--out", str(inst))
        subset = tmp_path / "s.json"
        subset.write_text(entries)
        code, res = run(capsys, "verify", str(inst), "--subset", str(subset),
                        "--c", "0.1", "--epsilon", "0.3")
        assert code == 2 and res is None

    @pytest.mark.parametrize("text", [
        '{"vectors": [[1.0, 0.0], [0.0, 1.0]]}',
        '{"d": 2, "vectors": [[1.0, 0.0], [0.0]]}',
        '{"d": 1, "vectors": [[1' + '0' * 400 + ']]}',
    ], ids=["missing-d", "ragged-rows", "huge-integer"])
    def test_malformed_instance(self, tmp_path, capsys, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        code, res = run(capsys, "check", "instance", str(path))
        assert code == 2 and res is None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_instance_prints_strict_json(self, tmp_path, capsys):
        # The Gram and alpha overflow to inf; stdout carries them as null.
        path = tmp_path / "inst.json"
        path.write_text('{"d": 1, "vectors": [[1e200], [0.5]]}')
        code, res = run(capsys, "check", "instance", str(path))
        assert code == 1
        assert res["valid"] is False
        assert res["deviation"] is None and res["alpha"] is None

    @pytest.mark.parametrize("mutate", [
        lambda obj: obj.pop("literal_clauses"),
        lambda obj: obj["literal_clauses"]["1"].__setitem__(0, -1),
        lambda obj: obj.update(var_dims={"1": 4, "2": 5, "3": 6}),
        lambda obj: obj["literal_clauses"].update({"99": obj["literal_clauses"].pop("1")}),
    ], ids=["missing-key", "negative-clause-index", "legacy-key", "renamed-literal"])
    def test_malformed_layout(self, tmp_path, capsys, mutate):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(emit_dimacs(F_UNSAT4))
        inst = tmp_path / "inst.json"
        layout = tmp_path / "layout.json"
        run(capsys, "reduce", "ksform2inst", str(cnf), "--out", str(inst),
            "--layout", str(layout))
        obj = json.loads(layout.read_text())
        mutate(obj)
        layout.write_text(json.dumps(obj))
        subset = tmp_path / "s.json"
        subset.write_text("[0, 4, 5]\n")
        code, res = run(capsys, "check", "violation", str(inst),
                        "--layout", str(layout), "--subset", str(subset))
        assert code == 2 and res is None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["exhaustive", "branch-bound"])
    def test_overflowing_gram_is_not_isotropic(self, tmp_path, capsys, mode):
        # The Gram of a 1e200 entry overflows, so its isotropy deviation is NaN.
        inst = tmp_path / "inst.json"
        inst.write_text('{"d": 2, "vectors": [[1.0, 0.0], [0.0, 1.0], [1e200, 0.0]]}')
        code = main(["oracle", str(inst), "--iso-tol", "1e300", *NODE_LIMIT_FLAGS[mode]])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "nan" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("kind", ["instance", "subset", "layout"])
    def test_deeply_nested_json(self, tmp_path, capsys, kind):
        inst, layout, subset = (tmp_path / name for name in ("inst.json", "layout.json", "s.json"))
        inst.write_text(INSTANCE_TEXT)
        layout.write_text(LAYOUT_TEXT)
        subset.write_text(SUBSET_TEXT)
        {"instance": inst, "subset": subset, "layout": layout}[kind].write_text(DEEP_JSON)
        argv = {"instance": ["check", "instance", str(inst)],
                "subset": ["verify", str(inst), "--subset", str(subset),
                           "--c", "0.1", "--epsilon", "0.3"],
                "layout": ["check", "violation", str(inst), "--layout", str(layout),
                           "--subset", str(subset)]}[kind]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--c", "nan"]), ("solve", ["--C", "nan"]), ("solve", ["--C", "inf"]),
        ("solve", ["--C", "-1"]), ("solve", ["--c", "inf"]), ("solve", ["--epsilon", "nan"]),
        ("solve", ["--epsilon", "1e-200"]), ("solve", ["--c", "5e-324"]),
        ("verify", ["--c", "nan"]), ("verify", ["--c", "inf"]), ("verify", ["--epsilon", "nan"]),
        ("oracle", ["--c", "nan"]), ("oracle", ["--c", "-1"]), ("oracle", ["--c", "inf"]),
    ], ids=lambda x: x if isinstance(x, str) else "=".join(x))
    def test_invalid_parameter_is_usage_error(self, tmp_path, capsys, command, flags):
        inst, subset = tmp_path / "inst.json", tmp_path / "s.json"
        run(capsys, "gen", "planted", "--d", "3", "--k", "4", "--seed", "1",
            "--out", str(inst), "--planted-out", str(subset))
        defaults = {"solve": {"--c": "0.1", "--epsilon": "0.3", "--seed": "1"},
                    "verify": {"--c": "0.1", "--epsilon": "0.3", "--subset": str(subset)},
                    "oracle": {}}[command]
        args = {**defaults, flags[0]: flags[1]}
        code = main([command, str(inst), *[x for kv in args.items() for x in kv]])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, (code, captured.out)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("mode", ["exhaustive", "branch-bound"])
    def test_oracle_threshold_zero_is_valid(self, tmp_path, capsys, mode):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "random", "--d", "3", "--m", "8", "--seed", "1", "--out", str(inst))
        code, res = run(capsys, "oracle", str(inst), "--c", "0", *NODE_LIMIT_FLAGS[mode])
        assert code == 1 and res["c"] == 0.0 and res["feasible_eq1"] is False

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_oracle_threads_below_one(self, tmp_path, capsys, threads):
        inst = tmp_path / "inst.json"
        inst.write_text(INSTANCE_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(inst), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_oracle_has_no_threads_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "inst.json", "--threads", "1"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_crash_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_check", crash)
        code = main(["check", "instance", str(tmp_path / "inst.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {"error": "internal", "message": "RuntimeError: boom"}

    def test_solve_has_no_threads_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "inst.json", "--c", "0.1", "--epsilon", "0.3", "--seed", "1",
                  "--threads", "1"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


# --- exit-code contract under mutated input files ------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
KEYS = st.sampled_from(["d", "vectors", "meta", "num_clauses", "num_vars", "literal_clauses",
                        "var_dims", "literal_vecs", "1", "-1", "99", "0"]) | st.text(max_size=4)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _overwrite(draw, text):
    raw = text.encode()
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.binary(max_size=4)) + raw[at + draw(st.integers(0, 4)):]


@st.composite
def mutated(draw, text):
    """A file's bytes after a few drawn edits: JSON values replaced, deleted or
    renamed somewhere inside the document, or raw bytes overwritten."""
    if draw(st.booleans()):
        return _overwrite(draw, text)
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        op = draw(st.sampled_from(["replace", "delete", "rename"]))
        if op == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(KEYS)] = parent.pop(path[-1])
    return json.dumps(doc).encode()


TOKENS = st.integers(-4, 4).map(str) | st.sampled_from(["p", "cnf", "c", "-0", "1e3"]) \
    | st.text(max_size=3)


@st.composite
def mutated_dimacs(draw, text):
    """DIMACS bytes after a few drawn edits: tokens replaced or deleted, lines
    deleted or repeated (then, half the time, the header's clause count set to
    match, and half the time its variable count set to a large number), or raw
    bytes overwritten."""
    if draw(st.booleans()):
        return _overwrite(draw, text)
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        row = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["replace", "replace", "delete-token", "delete-line",
                                   "repeat-line"]))
        if op == "delete-line":
            del lines[row]
        elif op == "repeat-line":
            lines.insert(row, list(lines[row]))
        elif lines[row]:
            col = draw(st.integers(0, len(lines[row]) - 1))
            if op == "replace":
                lines[row][col] = draw(TOKENS)
            else:
                del lines[row][col]
    headers = [line for line in lines if line[:2] == ["p", "cnf"] and len(line) == 4]
    if draw(st.booleans()):
        ends = sum(tok == "0" for line in lines if line[:1] != ["p"] for tok in line)
        for line in headers:
            line[3] = str(ends)
    if draw(st.booleans()):
        for line in headers:
            line[2] = str(draw(st.integers(0, 10**12)))
    return "\n".join(" ".join(line) for line in lines).encode() + b"\n"


def _edited(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc).encode()


_UNSAT4_INSTANCE, _UNSAT4_LAYOUT = ks_form_to_instance(F_UNSAT4)
INSTANCE_TEXT = instance_to_json(_UNSAT4_INSTANCE)
LAYOUT_TEXT = layout_to_json(_UNSAT4_LAYOUT)
SUBSET_TEXT = "[0, 4, 5]\n"
ORACLE_INSTANCE_TEXT = instance_to_json(gen_random(3, 8, seed=1))
SOLVE_INSTANCE_TEXT = instance_to_json(gen_planted(3, 4, seed=1)[0])
DIMACS_TEXT = emit_dimacs(F_UNSAT4)
# Nested deeper than the interpreter's recursion limit, so json.loads raises RecursionError.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _option(*typical):
    """A numeric option as argparse reads it: a typical value three times in
    four, else any float, nan, inf and negatives included."""
    return st.integers(0, 3).flatmap(
        lambda k: st.sampled_from(typical) if k else st.floats().map(repr))


class TestExitCodeContract:
    """Mutated instance, layout, subset and DIMACS files never crash `ks`: the
    exit code is 0, 1 or 2, exits 0 and 1 print one JSON object, exit 2 prints
    no traceback."""

    def _check(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (code, captured.out, captured.err)
        if code in (0, 1):
            lines = captured.out.strip().splitlines()
            assert len(lines) == 1 and isinstance(strict_loads(lines[0]), dict), captured.out
        else:
            assert "Traceback" not in captured.err, captured.err

    def _files(self, tmp_path, instance=INSTANCE_TEXT.encode(), layout=LAYOUT_TEXT.encode(),
               subset=SUBSET_TEXT.encode()):
        paths = [tmp_path / name for name in ("inst.json", "layout.json", "s.json")]
        for path, content in zip(paths, (instance, layout, subset)):
            path.write_bytes(content)
        return [str(path) for path in paths]

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated(INSTANCE_TEXT))
    @example(_edited(INSTANCE_TEXT, lambda doc: doc["vectors"][0].__setitem__(0, 10**400)))
    @example(DEEP_JSON.encode())
    def test_mutated_instance(self, capsys, tmp_path, content):
        inst, layout, subset = self._files(tmp_path, instance=content)
        self._check(capsys, ["check", "instance", inst])
        self._check(capsys, ["check", "violation", inst, "--layout", layout, "--subset", subset])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated(LAYOUT_TEXT))
    @example(_edited(LAYOUT_TEXT, lambda doc: doc["literal_clauses"].update(
        {"99": doc["literal_clauses"].pop("1")})))
    @example(DEEP_JSON.encode())
    def test_mutated_layout(self, capsys, tmp_path, content):
        inst, layout, subset = self._files(tmp_path, layout=content)
        self._check(capsys, ["check", "violation", inst, "--layout", layout, "--subset", subset])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated(SUBSET_TEXT))
    @example(DEEP_JSON.encode())
    def test_mutated_subset(self, capsys, tmp_path, content):
        inst, layout, subset = self._files(tmp_path, subset=content)
        self._check(capsys, ["verify", inst, "--subset", subset, "--c", "0.1", "--epsilon", "0.3"])
        self._check(capsys, ["check", "violation", inst, "--layout", layout, "--subset", subset])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated(ORACLE_INSTANCE_TEXT), st.integers(-2, 2**9))
    @example(DEEP_JSON.encode(), 2000)
    @example(ORACLE_INSTANCE_TEXT.encode(), 0)
    @example(ORACLE_INSTANCE_TEXT.encode(), -1)
    def test_mutated_instance_oracle(self, capsys, tmp_path, content, node_limit):
        # A loose --iso-tol lets non-isotropic vectors through to the oracle.
        # Below 2^9 - 1 nodes the unmutated m = 8 instance can stop early.
        inst = tmp_path / "inst.json"
        inst.write_bytes(content)
        self._check(capsys, ["oracle", str(inst), "--iso-tol", "1e6", "--c", "0.1"])
        self._check(capsys, ["oracle", str(inst), "--iso-tol", "1e6",
                             f"--node-limit={node_limit}"])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_dimacs(DIMACS_TEXT))
    @example(DIMACS_TEXT.replace("p cnf 3 4", "p cnf 1000000000000 4").encode())
    def test_mutated_dimacs(self, capsys, tmp_path, content):
        cnf = tmp_path / "f.cnf"
        cnf.write_bytes(content)
        self._check(capsys, ["check", "ksform", str(cnf)])
        self._check(capsys, ["check", "nae", str(cnf)])
        self._check(capsys, ["reduce", "sat2ks", str(cnf), "--out", str(tmp_path / "out.json"),
                             "--layout", str(tmp_path / "layout.json")])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.just(SOLVE_INSTANCE_TEXT.encode()) | mutated(SOLVE_INSTANCE_TEXT),
           _option("0.1", "0.2"), _option("0.3", "0.5"), _option("40", "1"))
    @example(SOLVE_INSTANCE_TEXT.encode(), "nan", "0.3", "40")
    @example(SOLVE_INSTANCE_TEXT.encode(), "0.1", "0.3", "-1.0")
    @example(SOLVE_INSTANCE_TEXT.encode(), "0.1", "6.295354473838808e-224", "40")
    def test_mutated_instance_solve(self, capsys, tmp_path, content, c, epsilon, level):
        # A loose --iso-tol lets non-isotropic vectors through to the solver.
        inst = tmp_path / "inst.json"
        inst.write_bytes(content)
        self._check(capsys, ["solve", str(inst), f"--c={c}", f"--epsilon={epsilon}",
                             f"--C={level}", "--seed", "1", "--iso-tol", "1e6",
                             "--max-level-size", "4096"])

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["random", "planted"]), st.integers(-2, 8), st.integers(-2, 12),
           st.integers(-2**65, 2**65))
    def test_gen(self, capsys, tmp_path, mode, d, size, seed):
        self._check(capsys, ["gen", mode, "--d", str(d), "--m" if mode == "random" else "--k",
                             str(size), "--seed", str(seed), "--out", str(tmp_path / "i.json")])

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_dimacs(DIMACS_TEXT))
    def test_mutated_dimacs_reduce(self, capsys, tmp_path, content):
        cnf = tmp_path / "f.cnf"
        cnf.write_bytes(content)
        self._check(capsys, ["reduce", "nae2ksform", str(cnf), "--out", str(tmp_path / "g.cnf"),
                             "--varmap", str(tmp_path / "map.json")])
        self._check(capsys, ["reduce", "ksform2inst", str(cnf),
                             "--out", str(tmp_path / "out.json"),
                             "--layout", str(tmp_path / "layout.json")])

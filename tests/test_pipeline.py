"""End-to-end runs through the installed `ks` executable and across modules."""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ks2
from ks2 import check_subset, gen_random, load_instance, load_subset, solve
from ks2.oracle import branch_bound_w, brute_force_w
from ks2.reduction import F_SAT3, emit_dimacs, ks_form_to_instance

from reference_sparsifier import reference_stream


def ks_cmd():
    exe = shutil.which("ks")
    if exe:
        return [exe]
    return [sys.executable, "-m", "ks2.cli"]


def run_ks(*args):
    # The child must import the ks2 this process imported, also when that
    # comes from the pytest pythonpath setting rather than an install.
    src = str(Path(ks2.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(ks_cmd() + list(args), capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    out = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, out, proc.stderr


def test_console_script_pipeline(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(emit_dimacs(F_SAT3))
    inst_path = tmp_path / "inst.json"
    layout_path = tmp_path / "layout.json"
    subset_path = tmp_path / "s.json"

    # The fixture already satisfies the occurrence conditions, so stage 2
    # alone produces the compact 6-dimensional instance; the combined mode
    # re-splits every variable first and must still come out isotropic.
    code, res, err = run_ks("reduce", "ksform2inst", str(cnf),
                            "--out", str(inst_path), "--layout", str(layout_path))
    assert code == 0, err
    assert res["alpha"] == 0.25 and res["d"] == 6 and res["m"] == 27

    code, res2, err = run_ks("reduce", "sat2ks", str(cnf),
                             "--out", str(tmp_path / "big.json"))
    assert code == 0, err
    assert res2["d"] == res2["ksform_clauses"] + res2["ksform_vars"]
    assert res2["alpha"] == 0.25

    # The exact band holds at the subset encoding the satisfying assignment;
    # verify it through the files the CLI wrote.
    from ks2.reduction import assignment_to_subset, ks_form_to_instance, load_layout
    from ks2.instance import save_subset
    layout = load_layout(layout_path)
    c = 1.0 / (4.0 * math.sqrt(2.0))
    save_subset(assignment_to_subset(layout, (True, False, True)), subset_path)
    code, rep, err = run_ks("verify", str(inst_path), "--subset", str(subset_path),
                            "--c", str(c), "--epsilon", "0.0")
    assert code == 0, err
    assert rep["satisfies_eq1"] and rep["satisfies_eq2"]

    # Library APIs agree with the CLI files.
    inst = load_instance(inst_path)
    subset = load_subset(subset_path)
    assert check_subset(inst, subset, c, 0.0).satisfies_eq1


def test_console_script_solve_on_planted(tmp_path):
    code, res, err = run_ks("gen", "planted", "--d", "3", "--k", "4",
                            "--seed", "9", "--out", str(tmp_path / "i.json"),
                            "--planted-out", str(tmp_path / "p.json"))
    assert code == 0, err
    code, rep, err = run_ks("verify", str(tmp_path / "i.json"),
                            "--subset", str(tmp_path / "p.json"),
                            "--c", "0.05", "--epsilon", "0.0")
    assert code == 0, err
    assert rep["satisfies_eq1"]
    code, out, err = run_ks("solve", str(tmp_path / "i.json"), "--c", "0.1",
                            "--epsilon", "0.3", "--seed", "4",
                            "--subset-out", str(tmp_path / "s.json"))
    assert code in (0, 1), err
    if code == 0:
        code, rep, err = run_ks("verify", str(tmp_path / "i.json"),
                                "--subset", str(tmp_path / "s.json"),
                                "--c", "0.1", "--epsilon", "0.3")
        assert code == 0 and rep["satisfies_eq2"]


def test_degenerate_generation_is_usage_error(tmp_path):
    code, _, err = run_ks("gen", "random", "--d", "5", "--m", "3",
                          "--seed", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error" in err.lower() or err


def test_solver_and_oracle_agree_on_feasibility():
    # Where the oracle proves the exact band reachable at the planted
    # subset, the solver's relaxed-band answer must be "found" or a sound
    # "not-found" (never a false positive); spot-check a few seeds end to end.
    from ks2 import gen_planted
    for seed in (0, 1, 2):
        inst, planted = gen_planted(3, 5, seed=seed)
        res = brute_force_w(inst)
        assert res.w_value <= 1e-9
        out = solve(inst, 0.1, 0.3, seed=seed)
        if out.found:
            assert check_subset(inst, out.subset, 0.1, 0.3).satisfies_eq2


def test_certify_script_runs_from_checkout(tmp_path):
    # No PYTHONPATH and a foreign working directory: the script must find
    # ks2 under the checkout's src/ by itself.
    script = Path(__file__).resolve().parents[1] / "scripts" / "certify_fixtures.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--samples", "5"], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "certified" in proc.stdout
    # F_SAT3: 8 generators, 15 products of two flips, 12 of a flip and a
    # permutation, 2 of two permutations, and 6 transpositions.
    assert ("6 flips, 2 signed coordinate permutations, 6 equal-row transpositions,"
            " cut by 43 permutations") in proc.stdout
    # F_UNSAT4: 10 generators, and 21, 21 and 6 products of the three kinds.
    assert ("7 flips, 3 signed coordinate permutations, 0 equal-row transpositions,"
            " cut by 58 permutations") in proc.stdout


def test_oracle_layers_script_writes_bench(tmp_path):
    # --against this checkout itself: the other side's counters are its own.
    root = Path(__file__).resolve().parents[1]
    script = root / "scripts" / "oracle_layers.py"
    out = tmp_path / "BENCH_oracle.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--reps", "1", "--instances", "F_SAT3",
                           "--against", str(root), "--out", str(out)],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report.keys() == {"instances", "machine", "peak_rss_mb"}
    assert list(report["instances"]) == ["F_SAT3"] and report["peak_rss_mb"] > 0
    rec = report["instances"]["F_SAT3"]
    res = branch_bound_w(ks_form_to_instance(F_SAT3)[0])
    assert (rec["nodes"], rec["cut"], rec["leaves"], rec["w"]) == (
        res.nodes, res.cut, res.eigensolved, res.w_value)
    assert rec["leaves"] <= rec["eigensolved_matrices"] and 0 < rec["eig_calls"]
    assert (rec["against"]["nodes"], rec["against"]["cut"], rec["against"]["leaves"]) == (
        rec["nodes"], rec["cut"], rec["leaves"])
    assert rec["reps"] == 1 and rec["wall_iqr_s"] == 0
    assert rec["wall_min_s"] == rec["wall_median_s"]
    assert rec["us_per_node"] == pytest.approx(rec["wall_median_s"] * 1e6 / rec["nodes"])


def test_solver_layers_script_times_against_a_checkout(tmp_path):
    # --against with this checkout itself: both sides are timed in child
    # processes, one rep each.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "BENCH_solver.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    name, drawing = "gen_random(3, 14, seed=3), mu=1", "gen_random(3, 16, seed=2), c=0.05, mu=1"
    proc = subprocess.run([sys.executable, str(root / "scripts" / "solver_layers.py"),
                           "--reps", "1", "--against", str(root), "--instances",
                           "gen_planted(5, 8, seed=0)", name, drawing, "--out", str(out)],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report.keys() == {"instances", "machine", "peak_rss_mb"}
    planted, mu1 = report["instances"]["gen_planted(5, 8, seed=0)"], report["instances"][name]
    drew = report["instances"][drawing]
    # The certified run eigensolves its gates and prunes but makes no shifted
    # solve and no draw; the mu = 1 run samples, and finds its subset before
    # it expands a node with p < 1, so it draws nothing.
    assert planted["certified"] and planted["margin"] >= 1.0
    assert planted["shifted_solves"] == planted["uniform_draws"] == 0
    assert not mu1["certified"] and mu1["shifted_solves"] > 0 and mu1["uniform_draws"] == 0
    # The c = 0.05 run expands nodes with p < 1 before it finds its subset.
    assert drew["status"] == "found" and not drew["certified"] and drew["uniform_draws"] > 0
    assert (planted["forced_mu"], mu1["forced_mu"], drew["forced_mu"]) == (False, True, True)
    assert "(forced mu, outside the paper's theorem)" in proc.stdout
    for rec in (planted, mu1, drew):
        # Every node above a search's depth that survives the filter is
        # pruned or expanded after one prune eigensolve of two matrices;
        # only expanded nodes make shifted solves.
        assert rec["gate_matrices"] > 0 and rec["prune_matrices"] > 0
        assert rec["prune_matrices"] % 2 == 0 and rec["pruned"] <= rec["prune_matrices"] // 2
        assert rec["shifted_solves"] <= rec["prune_matrices"] // 2 - rec["pruned"]
        assert rec["gate_matrices"] + rec["prune_matrices"] // 2 <= rec["nodes"]
        assert rec["reps"] == rec["against"]["reps"] == rec["against"]["rounds"] == 1
        assert rec["against"]["rounds_this_faster"] in (0, 1)
        assert rec["us_per_node"] == pytest.approx(rec["wall_median_s"] * 1e6 / rec["nodes"])


def test_sparsifier_layers_script_writes_bench(tmp_path):
    # --against this checkout itself: the other side's counts and ledger
    # hash are its own.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "BENCH_sparsifier.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    name = "gen_random(10, 4000, seed=0)"
    proc = subprocess.run([sys.executable, str(root / "scripts" / "sparsifier_layers.py"),
                           "--reps", "1", "--instances", name, "--against", str(root),
                           "--out", str(out)],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report.keys() == {"instances", "machine", "peak_rss_mb"}
    assert list(report["instances"]) == [name] and report["peak_rss_mb"] > 0
    rec = report["instances"][name]
    # One shifted solve per observe; most draws have p < 1.
    assert rec["keeps"] + rec["skips"] == rec["shifted_solves"] == rec["m"] == 4000
    assert 0 < rec["saturated_keeps"] < rec["keeps"] and rec["skips"] > 0
    for key in ("keeps", "skips", "saturated_keeps", "shifted_solves", "ledger_hash"):
        assert rec["against"][key] == rec[key]
    _, ledger, h = reference_stream(gen_random(10, 4000, seed=0).vectors,
                                    np.random.default_rng(0).random(4000), 0.5, 0.05)
    assert (rec["keeps"], rec["ledger_hash"]) == (len(ledger), f"{h:016x}")
    assert rec["reps"] == rec["against"]["reps"] == rec["against"]["rounds"] == 1
    assert rec["wall_iqr_s"] == 0 and rec["wall_min_s"] == rec["wall_median_s"]
    assert rec["us_per_observe"] == pytest.approx(rec["wall_median_s"] * 1e6 / 4000)
    assert rec["against"]["us_per_observe"] == pytest.approx(
        rec["against"]["wall_median_s"] * 1e6 / 4000)

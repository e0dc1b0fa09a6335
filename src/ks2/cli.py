"""Command-line front end: generation, solving, oracle, reduction, verification.

Each invocation prints exactly one JSON result object to stdout; human
diagnostics go to stderr.  Exit codes are stable API: 0 success / found,
1 verified negative (not found, unsatisfiable, condition fails), 2 usage or
I/O error, 3 internal error (a failed invariant or any other crash, with
{"error": "internal", "message"} on stdout).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from . import oracle as oracle_mod
from . import reduction, solver
from .errors import InternalInvariantError, KsError, TooLarge
from .instance import (
    gen_planted,
    gen_random,
    load_instance,
    load_subset,
    save_instance,
    save_subset,
    validate,
    check_subset,
    DEFAULT_ISO_TOL,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _finite(obj):
    """obj with every non-finite float replaced by None, so the output is strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit(obj) -> None:
    print(json.dumps(_finite(obj), allow_nan=False))


def _load_validated(path, iso_tol):
    return validate(load_instance(path), iso_tol=iso_tol)


# --- subcommand handlers -----------------------------------------------------


def _cmd_gen(args) -> int:
    if args.mode == "random":
        inst = gen_random(args.d, args.m, args.seed)
        planted = None
    else:
        inst, planted = gen_planted(args.d, args.k, args.seed)
    save_instance(inst, args.out)
    result = {"written": args.out, "d": inst.dim, "m": inst.num_vectors, "alpha": inst.alpha}
    if planted is not None:
        result["planted"] = list(planted)
        if args.planted_out:
            save_subset(planted, args.planted_out)
            result["planted_written"] = args.planted_out
    _emit(result)
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_validated(args.instance, args.iso_tol)
    params = solver.derive_params(inst, args.c, args.epsilon, level_constant=args.C)
    outcome = solver.solve(inst, args.c, args.epsilon, args.seed, params_override=params,
                           node_limit=args.node_limit)
    if outcome.found and args.subset_out:
        save_subset(outcome.subset, args.subset_out)
    _emit(outcome.to_dict())
    return EXIT_OK if outcome.found else EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    inst = _load_validated(args.instance, args.iso_tol)
    res = oracle_mod.branch_bound_w(inst, node_limit=args.node_limit)
    if args.c is not None:
        res = oracle_mod.with_threshold(inst, res, args.c)
    _emit(res.to_dict())
    return EXIT_NEGATIVE if res.feasible_eq1 is False else EXIT_OK


def _cmd_reduce(args) -> int:
    with open(args.formula) as fh:
        f = reduction.parse_dimacs(fh.read())
    result: dict = {"input_vars": f.num_vars, "input_clauses": f.num_clauses}
    if args.mode in ("nae2ksform", "sat2ks"):
        f, varmap = reduction.nae3sat_to_ks_form(f)
        result["ksform_vars"] = f.num_vars
        result["ksform_clauses"] = f.num_clauses
        if args.varmap:
            with open(args.varmap, "w") as fh:
                json.dump({str(v): {"copies": list(s.copies), "chain": list(s.chain)}
                           for v, s in varmap.items()}, fh, indent=2)
            result["varmap_written"] = args.varmap
    if args.mode == "nae2ksform":
        with open(args.out, "w") as fh:
            fh.write(reduction.emit_dimacs(f))
        result["written"] = args.out
        _emit(result)
        return EXIT_OK
    inst, layout = reduction.ks_form_to_instance(f)
    save_instance(inst, args.out)
    result.update({"written": args.out, "d": inst.dim, "m": inst.num_vectors,
                   "alpha": inst.alpha})
    if args.layout:
        reduction.save_layout(layout, args.layout)
        result["layout_written"] = args.layout
    _emit(result)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load_validated(args.instance, args.iso_tol)
    subset = load_subset(args.subset)
    report = check_subset(inst, subset, args.c, args.epsilon)
    _emit(report.to_dict())
    return EXIT_OK if report.satisfies_eq2 else EXIT_NEGATIVE


def _cmd_check(args) -> int:
    if args.what == "instance":
        inst = load_instance(args.target)
        dev = inst.isotropy_deviation()
        valid = dev <= args.iso_tol
        _emit({"valid": valid, "deviation": dev, "iso_tol": args.iso_tol,
               "d": inst.dim, "m": inst.num_vectors, "alpha": inst.alpha})
        return EXIT_OK if valid else EXIT_NEGATIVE
    if args.what == "ksform":
        with open(args.target) as fh:
            f = reduction.parse_dimacs(fh.read())
        violations = reduction.validate_ks_form(f)
        _emit({"valid": not violations,
               "violations": [{"kind": v.kind, "message": v.message} for v in violations]})
        return EXIT_OK if not violations else EXIT_NEGATIVE
    if args.what == "nae":
        with open(args.target) as fh:
            f = reduction.parse_dimacs(fh.read())
        assignment = reduction.nae_brute_solve(f, var_limit=args.var_limit)
        if assignment is None:
            _emit({"status": "unsat"})
            return EXIT_NEGATIVE
        _emit({"status": "sat", "assignment": list(assignment)})
        return EXIT_OK
    # violation
    inst = load_instance(args.target)
    layout = reduction.load_layout(args.layout)
    subset = load_subset(args.subset)
    witness = reduction.find_violation(layout, inst, subset)
    if witness is None:
        decoded = reduction.subset_to_assignment(layout, subset)
        _emit({"encodes_satisfying": True, "assignment": list(decoded)})
        return EXIT_NEGATIVE
    _emit({"encodes_satisfying": False,
           "violation": {"kind": witness.kind, "value": witness.value,
                         "y": list(map(float, witness.y))}})
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ks", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    gsub = g.add_subparsers(dest="mode", required=True)
    gr = gsub.add_parser("random", help="whitened Gaussian isotropic instance")
    gr.add_argument("--d", type=int, required=True)
    gr.add_argument("--m", type=int, required=True)
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--out", required=True)
    gp = gsub.add_parser("planted", help="instance with a known half subset")
    gp.add_argument("--d", type=int, required=True)
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("--out", required=True)
    gp.add_argument("--planted-out")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="run the depth-first search")
    s.add_argument("instance")
    s.add_argument("--c", type=float, required=True)
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--C", type=float, default=solver.DEFAULT_LEVEL_CONSTANT,
                   help="constant in the sparsifier size bound n")
    s.add_argument("--node-limit", type=int,
                   help="stop after this many popped nodes (default: no limit)")
    s.add_argument("--iso-tol", type=float, default=DEFAULT_ISO_TOL)
    s.add_argument("--subset-out")
    s.set_defaults(func=_cmd_solve)

    o = sub.add_parser("oracle", help="exact minimum discrepancy by branch-and-bound")
    o.add_argument("instance")
    o.add_argument("--c", type=float)
    o.add_argument("--node-limit", type=int, default=2 ** (oracle_mod.DEFAULT_M_LIMIT + 1) - 1,
                   help="stop after this many nodes (default: enough for any m <= 24)")
    o.add_argument("--iso-tol", type=float, default=DEFAULT_ISO_TOL)
    o.set_defaults(func=_cmd_oracle)

    r = sub.add_parser("reduce", help="formula rewriting and vector construction")
    rsub = r.add_subparsers(dest="mode", required=True)
    for mode, help_, flags in (
            ("nae2ksform", "rewrite into restricted form", ("--varmap",)),
            ("ksform2inst", "vectors of a restricted-form formula", ("--layout",)),
            ("sat2ks", "rewrite, then build the vectors", ("--layout", "--varmap"))):
        rm = rsub.add_parser(mode, help=help_)
        rm.add_argument("formula")
        rm.add_argument("--out", required=True)
        for flag in flags:
            rm.add_argument(flag)
    r.set_defaults(func=_cmd_reduce)

    v = sub.add_parser("verify", help="re-check a subset against the band conditions")
    v.add_argument("instance")
    v.add_argument("--subset", required=True)
    v.add_argument("--c", type=float, required=True)
    v.add_argument("--epsilon", type=float, required=True)
    v.add_argument("--iso-tol", type=float, default=DEFAULT_ISO_TOL)
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("check", help="validity checks and violation witnesses")
    csub = c.add_subparsers(dest="what", required=True)
    ci = csub.add_parser("instance", help="isotropy of an instance file")
    ci.add_argument("target")
    ci.add_argument("--iso-tol", type=float, default=DEFAULT_ISO_TOL)
    ck = csub.add_parser("ksform", help="restricted-form conditions of a formula")
    ck.add_argument("target")
    cn = csub.add_parser("nae", help="NAE-satisfiability of a formula by enumeration")
    cn.add_argument("target")
    cn.add_argument("--var-limit", type=int, default=reduction.DEFAULT_VAR_LIMIT)
    cv = csub.add_parser("violation", help="a violation witness for a subset")
    cv.add_argument("target")
    cv.add_argument("--layout", required=True)
    cv.add_argument("--subset", required=True)
    c.set_defaults(func=_cmd_check)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        _emit({"error": "internal", "message": str(exc)})
        return EXIT_INTERNAL
    except TooLarge as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        _emit({"error": "too-large", "message": str(exc)})
        return EXIT_USAGE
    except (KsError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must never read as exit 1, "verified negative"
        traceback.print_exc()
        _emit({"error": "internal", "message": f"{type(exc).__name__}: {exc}"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

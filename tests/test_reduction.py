import itertools
import json
import math
import time

import numpy as np
import pytest

from ks2 import subset_distance
from ks2.errors import (
    BadAssignment,
    EmptyInstance,
    LayoutMismatch,
    MissingPolarity,
    Not3Cnf,
    NotKsForm,
    NotSatisfying,
    ParseError,
    TooLarge,
)
from ks2.reduction import (
    CnfFormula,
    F_SAT3,
    F_UNSAT4,
    NotDecodable,
    assignment_to_subset,
    emit_dimacs,
    find_violation,
    ks_form_to_instance,
    layout_from_json,
    layout_to_json,
    nae3sat_to_ks_form,
    nae_brute_solve,
    nae_eval,
    parse_dimacs,
    subset_to_assignment,
    validate_ks_form,
)

from conftest import random_3cnf, random_subset

INV_8R2 = 1.0 / (8.0 * math.sqrt(2.0))
INV_4R2 = 1.0 / (4.0 * math.sqrt(2.0))


def scan_all_assignments(f):
    """Independent oracle: all NAE-satisfying assignments, True-first order."""
    sols = []
    for k in range(2 ** f.num_vars):
        a = tuple((k >> (f.num_vars - 1 - i)) & 1 == 0 for i in range(f.num_vars))
        ok = True
        for c in f.clauses:
            vals = [a[abs(l) - 1] if l > 0 else not a[abs(l) - 1] for l in c]
            if all(vals) or not any(vals):
                ok = False
                break
        if ok:
            sols.append(a)
    return sols


class TestDimacs:
    def test_parse_single_clause(self):
        f = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
        assert f.num_vars == 3
        assert f.clauses == ((1, -2, 3),)

    def test_short_clause_rejected(self):
        with pytest.raises(Not3Cnf):
            parse_dimacs("p cnf 2 1\n1 2 0\n")

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 2 3 0\n")

    def test_clause_count_checked(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_round_trip_identity(self):
        text = emit_dimacs(F_SAT3)
        assert emit_dimacs(parse_dimacs(text)) == text

    def test_comments_ignored(self):
        f = parse_dimacs("c a comment\np cnf 3 1\nc another\n1 2 3 0\n")
        assert f.clauses == ((1, 2, 3),)


class TestNaeEval:
    def test_mixed_clause(self):
        f = CnfFormula(3, ((1, 2, 3),))
        assert nae_eval(f, (True, False, False))

    def test_all_true_fails(self):
        f = CnfFormula(3, ((1, 2, 3),))
        assert not nae_eval(f, (True, True, True))

    def test_fixture_assignment(self):
        assert nae_eval(F_SAT3, (True, False, True))
        assert (True, False, True) in scan_all_assignments(F_SAT3)

    def test_length_mismatch(self):
        with pytest.raises(BadAssignment):
            nae_eval(F_SAT3, (True, False))


class TestNaeBruteSolve:
    def test_fixture_first_assignment(self):
        expected = scan_all_assignments(F_SAT3)[0]
        assert nae_brute_solve(F_SAT3) == expected == (True, False, True)

    def test_unsat_fixture(self):
        assert scan_all_assignments(F_UNSAT4) == []
        assert nae_brute_solve(F_UNSAT4) is None

    def test_empty_formula(self):
        assert nae_brute_solve(CnfFormula(0, ())) == ()

    def test_no_clauses_all_true_first(self):
        assert nae_brute_solve(CnfFormula(2, ())) == (True, True)

    def test_var_limit(self):
        with pytest.raises(TooLarge):
            nae_brute_solve(CnfFormula(30, ()), var_limit=24)

    def test_matches_scan_on_randoms(self):
        for seed in range(40):
            f = random_3cnf(seed)
            sols = scan_all_assignments(f)
            got = nae_brute_solve(f)
            if sols:
                assert got == sols[0]
            else:
                assert got is None


def pairwise_clause_checks(f):
    """The repeated-variable and shared-literals violations by comparing every
    pair of clauses: the quadratic loop validate_ks_form replaced."""
    out = []
    for i in range(f.num_clauses):
        ci = set(f.clauses[i])
        if len({abs(l) for l in f.clauses[i]}) != 3:
            out.append(("repeated-variable", f"clause {i} repeats a variable: {f.clauses[i]}",
                        (i, i)))
        for j in range(i + 1, f.num_clauses):
            shared = ci & set(f.clauses[j])
            if len(shared) > 1:
                out.append(("shared-literals",
                            f"clauses {i} and {j} share literals {sorted(shared)}", (i, j)))
    return out


class TestValidateKsForm:
    def test_fixtures_valid(self):
        assert validate_ks_form(F_SAT3) == []
        assert validate_ks_form(F_UNSAT4) == []

    def test_occurrence_limit(self):
        f = CnfFormula(5, ((1, 2, 3), (1, 4, 5), (1, -2, -4)))
        kinds = {v.kind for v in validate_ks_form(f)}
        assert "occurrence-limit" in kinds

    def test_shared_literals(self):
        f = CnfFormula(4, ((1, 2, 3), (1, 2, 4)))
        kinds = {v.kind for v in validate_ks_form(f)}
        assert "shared-literals" in kinds

    def test_clause_checks_match_pairwise_loop(self):
        # Few variables and repeats allowed, so shared pairs and repeated
        # variables are common.
        kinds = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            nv = int(rng.integers(2, 8))
            lits = rng.integers(1, nv + 1, size=(int(rng.integers(1, 40)), 3))
            lits *= rng.choice([-1, 1], size=lits.shape)
            f = CnfFormula(nv, tuple(tuple(int(x) for x in row) for row in lits))
            got = [(v.kind, v.message, v.clauses) for v in validate_ks_form(f)
                   if v.kind in ("repeated-variable", "shared-literals")]
            assert got == pairwise_clause_checks(f), seed
            kinds.update(kind for kind, _, _ in got)
        assert kinds == {"repeated-variable", "shared-literals"}

    def test_disjoint_clauses_linear_time(self):
        # The pairwise loop took minutes at this size.
        n = 40_000
        f = CnfFormula(3 * n, tuple((3 * k + 1, 3 * k + 2, 3 * k + 3) for k in range(n)))
        t0 = time.perf_counter()
        vs = validate_ks_form(f)
        assert time.perf_counter() - t0 < 10.0
        assert len(vs) == 6 * n  # no-exact-two and missing-polarity per variable

    def test_missing_polarity_flagged_separately(self):
        f = CnfFormula(3, ((1, 2, 3), (1, -2, -3)))
        vs = validate_ks_form(f)
        assert any(v.kind == "missing-polarity" and v.variable == 1 for v in vs)

    def test_unused_variables_are_one_violation(self):
        # The work and the report are bounded by the clauses, not the header.
        f = CnfFormula(10**12, ((1, 2, 4),))
        vs = validate_ks_form(f)
        assert len(vs) == 7  # two per occurring variable, plus the unused ones
        unused = [v for v in vs if "never occur" in v.message]
        assert len(unused) == 1 and unused[0].kind == "missing-polarity"
        assert unused[0].variable == 3
        assert str(10**12 - 3) in unused[0].message
        with pytest.raises(MissingPolarity):
            ks_form_to_instance(f)


class TestStage1:
    def test_single_clause_removed_entirely(self):
        f = CnfFormula(3, ((1, 2, 3),))
        out, varmap = nae3sat_to_ks_form(f)
        assert out.num_clauses == 0 and out.num_vars == 0
        assert varmap == {}
        assert nae_brute_solve(out) == ()

    def test_two_occurrence_variable_gadget(self):
        # Variable 1 appears once per polarity (n1 = n2 = 1): it splits into
        # two copies tied together through three chain helpers.
        f = CnfFormula(3, ((1, 2, 3), (-1, 2, 3)))
        out, varmap = nae3sat_to_ks_form(f)
        assert sorted(varmap) == [1, 2, 3]
        split = varmap[1]
        assert len(split.copies) == 2
        assert len(split.chain) == 3
        x1, x2 = split.copies
        y = split.chain
        assert (x1, -x2, y[0]) in out.clauses
        assert (x2, -x1, y[1]) in out.clauses
        chain_clauses = [c for c in out.clauses if set(map(abs, c)) <= set(y)]
        assert len(chain_clauses) == 3
        assert validate_ks_form(out) == []

    def test_equivalence_on_randoms(self):
        for seed in range(60):
            f = random_3cnf(seed)
            out, _ = nae3sat_to_ks_form(f)
            assert validate_ks_form(out) == []
            sat_in = nae_brute_solve(f) is not None
            sat_out = nae_brute_solve(out, var_limit=80) is not None
            assert sat_in == sat_out

    @pytest.mark.parametrize("clauses", [
        ((1, 2, 3), (1, 1, 1), (-1, -2, -3)),
        ((1, 2, -2), (-2, -2, -2), (1, 2, 3)),
    ], ids=["(1 1 1)", "(-2 -2 -2)"])
    def test_inherently_false_clause(self, clauses):
        # One literal three times is never "not all equal": the whole formula
        # is unsatisfiable, and the rewrite returns the fixed unsat formula.
        f = CnfFormula(3, clauses)
        assert nae_brute_solve(f) is None
        assert nae3sat_to_ks_form(f) == (F_UNSAT4, {})

    def test_repeated_variable_clause_handled(self):
        # Same variable twice in one clause still splits into distinct copies.
        f = CnfFormula(2, ((1, 1, 2), (-1, -2, 2)))
        out, varmap = nae3sat_to_ks_form(f)
        assert validate_ks_form(out) == []
        sat_in = nae_brute_solve(f) is not None
        sat_out = nae_brute_solve(out, var_limit=80) is not None
        assert sat_in == sat_out


class TestStage2:
    def test_fixture_shapes(self, fsat3_built, funsat4_built):
        inst3, layout3 = fsat3_built
        assert (inst3.dim, inst3.num_vectors) == (6, 27)
        assert inst3.isotropy_deviation() <= 1e-9
        assert inst3.alpha == 0.25
        inst4, layout4 = funsat4_built
        assert (inst4.dim, inst4.num_vectors) == (7, 28)
        assert inst4.isotropy_deviation() <= 1e-9
        assert inst4.alpha == 0.25

    def test_vector_norms(self, fsat3_built):
        inst, layout = fsat3_built
        norms = (inst.vectors ** 2).sum(axis=1)
        for j in range(layout.num_clauses):
            assert norms[j] == 0.25
        for lit in layout.literal_clauses:
            expected = 0.25 if len(layout.literal_clauses[lit]) == 2 else 3.0 / 16.0
            for i in layout.literal_vecs(lit):
                assert norms[i] == pytest.approx(expected, abs=1e-15)

    def test_random_forms_isotropic(self):
        seen = 0
        for seed in range(200):
            out, _ = nae3sat_to_ks_form(random_3cnf(seed))
            if out.num_clauses == 0:
                continue
            inst, _ = ks_form_to_instance(out)
            assert inst.isotropy_deviation() <= 1e-9
            assert inst.alpha == 0.25
            seen += 1
        assert seen >= 100

    def test_missing_polarity_rejected(self):
        f = CnfFormula(3, ((1, 2, 3), (1, -2, -3)))
        with pytest.raises(MissingPolarity):
            ks_form_to_instance(f)

    def test_non_conforming_rejected(self):
        f = CnfFormula(5, ((1, 2, 3), (1, 4, 5), (1, -2, -4), (-1, -3, -5)))
        with pytest.raises(NotKsForm):
            ks_form_to_instance(f)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstance):
            ks_form_to_instance(CnfFormula(0, ()))

    def test_layout_json_round_trip(self, funsat4_built):
        _, layout = funsat4_built
        back = layout_from_json(layout_to_json(layout))
        assert back == layout

    def test_layout_file_must_spell_a_restricted_form(self, funsat4_built):
        _, layout = funsat4_built
        good = json.loads(layout_to_json(layout))
        legacy = dict(good, var_dims={str(v): layout.var_dim(v) for v in (1, 2, 3)})
        with pytest.raises(LayoutMismatch, match="ks reduce"):
            layout_from_json(json.dumps(legacy))
        for key in ("99", "x"):
            renamed = json.loads(json.dumps(good))
            renamed["literal_clauses"][key] = renamed["literal_clauses"].pop("1")
            with pytest.raises(LayoutMismatch, match="literals"):
                layout_from_json(json.dumps(renamed))
        # Moving literal 3 from clause 1 to clause 2 leaves clauses of 2 and 4 literals.
        four = json.loads(json.dumps(good))
        four["literal_clauses"]["3"] = [0, 2]
        with pytest.raises(LayoutMismatch, match="3-literal"):
            layout_from_json(json.dumps(four))
        # Swapping the clauses of 2 and -2 makes clauses 0 and 2 share 1 and -2.
        shared = json.loads(json.dumps(good))
        lc = shared["literal_clauses"]
        lc["2"], lc["-2"] = [1, 3], [0, 2]
        with pytest.raises(LayoutMismatch, match="restricted form"):
            layout_from_json(json.dumps(shared))


class TestAssignmentMaps:
    def test_satisfying_assignment_exact_half(self, fsat3_built):
        inst, layout = fsat3_built
        s = assignment_to_subset(layout, (True, False, True))
        assert len(s) == 12  # no clause has exactly one true literal here
        assert subset_distance(inst, s) <= 1e-12
        comp = tuple(i for i in range(inst.num_vectors) if i not in set(s))
        assert subset_distance(inst, comp) <= 1e-12

    def test_not_satisfying_rejected(self, fsat3_built):
        _, layout = fsat3_built
        with pytest.raises(NotSatisfying):
            assignment_to_subset(layout, (True, True, True))

    def test_round_trip(self, fsat3_built):
        _, layout = fsat3_built
        for assignment in scan_all_assignments(F_SAT3):
            s = assignment_to_subset(layout, assignment)
            assert subset_to_assignment(layout, s) == assignment

    def test_partial_quadruple_not_decodable(self, fsat3_built):
        _, layout = fsat3_built
        s = assignment_to_subset(layout, (True, False, True))
        broken = tuple(sorted(set(s) - {layout.literal_vecs(1)[0]}))
        out = subset_to_assignment(layout, broken)
        assert isinstance(out, NotDecodable)
        assert out.variable == 1

    def test_empty_subset_not_decodable(self, fsat3_built):
        _, layout = fsat3_built
        assert isinstance(subset_to_assignment(layout, ()), NotDecodable)


class TestFindViolation:
    def test_empty_subset_variable_case(self, funsat4_built):
        inst, layout = funsat4_built
        v = find_violation(layout, inst, ())
        assert v.kind == "variable-count"
        assert v.value == pytest.approx(0.5)

    def test_partial_quadruple_case_matches_table(self, funsat4_built):
        # Vectors 1 and 3 of a two-clause literal leave a 1/(4*sqrt(2))
        # off-diagonal between the variable dimension and its first clause.
        inst, layout = funsat4_built
        quad_pos, quad_neg = layout.literal_vecs(1), layout.literal_vecs(-1)
        s = (quad_pos[0], quad_pos[2], quad_neg[0], quad_neg[1]) \
            + layout.literal_vecs(2) + layout.literal_vecs(3)
        v = find_violation(layout, inst, s)
        assert v.kind == "partial-quadruple"
        b = inst.gram(s).a
        dx, dc = layout.var_dim(1), layout.literal_clauses[1][0]
        assert abs(b[dx, dc]) == pytest.approx(INV_4R2, abs=1e-15)
        assert v.value >= INV_8R2 - 1e-9

    def test_unsatisfied_clause_case(self, funsat4_built):
        inst, layout = funsat4_built
        # Full quadruples, all-true assignment: cannot NAE-satisfy anything.
        s = layout.literal_vecs(1) + layout.literal_vecs(2) + layout.literal_vecs(3)
        v = find_violation(layout, inst, s)
        assert v.kind == "unsatisfied-clause"
        assert v.value >= 0.25 - 1e-12

    def test_satisfying_subset_returns_none(self, fsat3_built):
        inst, layout = fsat3_built
        s = assignment_to_subset(layout, (True, False, True))
        assert find_violation(layout, inst, s) is None

    def test_random_subsets_all_violate_unsat_instance(self, funsat4_built):
        inst, layout = funsat4_built
        for seed in range(100):
            s = random_subset(inst.num_vectors, seed)
            v = find_violation(layout, inst, s)
            assert v is not None
            assert np.linalg.norm(v.y) == pytest.approx(1.0, abs=1e-12)
            b = inst.gram(s).a
            assert abs(float(v.y @ b @ v.y) - 0.5) >= INV_8R2 - 1e-9

    def test_layout_mismatch(self, fsat3_built, funsat4_built):
        inst3, _ = fsat3_built
        _, layout4 = funsat4_built
        with pytest.raises(LayoutMismatch):
            find_violation(layout4, inst3, ())


TABLE_ROWS = [
    ((0,), (INV_8R2, INV_8R2, 1.0 / 16.0)),
    ((0, 1), (0.0, 0.0, 1.0 / 8.0)),
    ((0, 2), (INV_4R2, 0.0, 0.0)),
    ((0, 3), (0.0, INV_4R2, 0.0)),
    ((1, 2), (0.0, INV_4R2, 0.0)),
    ((1, 3), (INV_4R2, 0.0, 0.0)),
    ((2, 3), (0.0, 0.0, 1.0 / 8.0)),
    ((0, 1, 2), (INV_8R2, INV_8R2, 1.0 / 16.0)),
]


@pytest.mark.parametrize("rows,expected", TABLE_ROWS)
def test_off_diagonal_table_rows(funsat4_built, rows, expected):
    """Each pattern of present quadruple vectors leaves the tabulated entries."""
    inst, layout = funsat4_built
    lit = 1  # appears in clauses 0 and 2
    quad = layout.literal_vecs(lit)
    cj, ck = layout.literal_clauses[lit]
    dx = layout.var_dim(abs(lit))
    b = inst.gram([quad[r] for r in rows]).a
    got = (abs(b[dx, cj]), abs(b[dx, ck]), abs(b[cj, ck]))
    assert got == pytest.approx(expected, abs=1e-12)


def test_off_diagonal_table_all_singletons_and_triples(funsat4_built):
    inst, layout = funsat4_built
    quad = layout.literal_vecs(1)
    cj, ck = layout.literal_clauses[1]
    dx = layout.var_dim(1)
    for rows in itertools.chain(itertools.combinations(range(4), 1),
                                itertools.combinations(range(4), 3)):
        b = inst.gram([quad[r] for r in rows]).a
        got = (abs(b[dx, cj]), abs(b[dx, ck]), abs(b[cj, ck]))
        assert got == pytest.approx((INV_8R2, INV_8R2, 1.0 / 16.0), abs=1e-12)

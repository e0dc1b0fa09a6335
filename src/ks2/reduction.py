"""NAE-3SAT machinery and the two-stage reduction to isotropic vector instances.

Stage 1 rewrites an arbitrary 3-CNF into the restricted occurrence form
(every literal in at most 2 clauses, each variable with some polarity in
exactly 2, pairwise clause overlap at most one literal) while preserving
NAE-satisfiability: variables are split into per-occurrence copies that an
odd cyclic chain of helper variables forces to agree.

Stage 2 maps a restricted-form formula to vectors: one dimension per clause
and per variable, a half-unit vector per clause, and four vectors per
literal whose entries are +-1/4 on the clause dimensions and +-1/sqrt(8) on
the variable dimension, signs chosen so everything cancels and the family
is isotropic with alpha = 1/4.  A subset of the vectors encodes an
assignment exactly when each variable contributes one full quadruple; any
subset that does not encode a satisfying assignment exposes a unit
direction whose quadratic form misses 1/2 by at least 1/(8*sqrt(2)).

Literals are DIMACS-style signed integers: +v / -v for variable v >= 1.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadAssignment,
    BadSubset,
    EmptyInstance,
    InternalInvariantError,
    LayoutMismatch,
    MissingPolarity,
    Not3Cnf,
    NotKsForm,
    NotSatisfying,
    ParseError,
    TooLarge,
)
from .instance import Instance, _is_json, _parse_json, validate

# Variable-dimension magnitude for literal vectors.  This is the double just
# below 2^-1.5, so a literal vector's squared norm never exceeds 1/4 in
# floating point and alpha is exactly 0.25 (attained by the clause vectors).
RSQRT8 = 1.0 / math.sqrt(8.0)
assert RSQRT8 * RSQRT8 <= 0.125

DEFAULT_VAR_LIMIT = 24


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF: clause tuples of three signed literals over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if self.num_vars < 0:
            raise ParseError(f"negative variable count {self.num_vars}")
        for c in self.clauses:
            if len(c) != 3:
                raise Not3Cnf(f"clause {c} does not have exactly 3 literals")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ParseError(f"literal {lit} out of range for {self.num_vars} variables")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


# Fixture formulas used throughout the tests: a NAE-satisfiable 3-clause
# formula (first satisfying assignment T,F,T) and a NAE-unsatisfiable
# 4-clause one.  Both meet the restricted occurrence conditions.
F_SAT3 = CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))
F_UNSAT4 = CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3)))


# --- DIMACS I/O ---------------------------------------------------------------


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF with exactly three literals per clause."""
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError(f"line {line_no}: bad header {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError(f"line {line_no}: bad header {line!r}") from exc
            continue
        if num_vars is None:
            raise ParseError(f"line {line_no}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ParseError(f"line {line_no}: bad token {tok!r}") from exc
            if lit == 0:
                if len(pending) != 3:
                    raise Not3Cnf(f"line {line_no}: clause {pending} has {len(pending)} literals")
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if pending:
        raise ParseError(f"unterminated clause {pending}")
    if declared_clauses != len(clauses):
        raise ParseError(f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def emit_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for c in f.clauses:
        lines.append(" ".join(str(lit) for lit in c) + " 0")
    return "\n".join(lines) + "\n"


# --- NAE evaluation and solving -------------------------------------------------


def _literal_value(lit: int, assignment: Sequence[bool]) -> bool:
    v = assignment[abs(lit) - 1]
    return v if lit > 0 else not v


def _nae_ok(clause: Sequence[int], assignment: Sequence[bool]) -> bool:
    """True iff the clause has at least one true and at least one false literal."""
    return len({_literal_value(lit, assignment) for lit in clause}) == 2


def nae_eval(f: CnfFormula, assignment: Sequence[bool]) -> bool:
    """True iff every clause has at least one true and at least one false literal."""
    if len(assignment) != f.num_vars:
        raise BadAssignment(f"assignment length {len(assignment)} vs {f.num_vars} variables")
    return all(_nae_ok(c, assignment) for c in f.clauses)


def nae_brute_solve(f: CnfFormula, var_limit: int = DEFAULT_VAR_LIMIT) -> Optional[tuple[bool, ...]]:
    """First NAE-satisfying assignment in lexicographic order, or None.

    Assignments are ordered True-first: (T,...,T) comes first and (F,...,F)
    last.  Search is depth-first over variables in index order with forced
    assignments propagated (a clause with two equal assigned literal values
    pins its third literal), which prunes without changing which assignment
    is found first.
    """
    n = f.num_vars
    if n > var_limit:
        raise TooLarge(f"{n} variables exceeds var_limit = {var_limit}")
    occ: list[list[int]] = [[] for _ in range(n + 1)]
    for ci, c in enumerate(f.clauses):
        for lit in c:
            occ[abs(lit)].append(ci)
    assign: list[Optional[bool]] = [None] * (n + 1)

    def propagate(start: int, trail: list[int]) -> bool:
        queue = [start]
        while queue:
            v = queue.pop()
            for ci in occ[v]:
                vals: list[bool] = []
                unassigned: list[int] = []
                for lit in f.clauses[ci]:
                    a = assign[abs(lit)]
                    if a is None:
                        unassigned.append(lit)
                    else:
                        vals.append(a if lit > 0 else not a)
                if not unassigned:
                    if all(vals) or not any(vals):
                        return False
                elif len(unassigned) == 1 and len(vals) == 2 and vals[0] == vals[1]:
                    lit = unassigned[0]
                    value = (not vals[0]) if lit > 0 else vals[0]
                    assign[abs(lit)] = value
                    trail.append(abs(lit))
                    queue.append(abs(lit))
        return True

    def dfs() -> bool:
        v = next((i for i in range(1, n + 1) if assign[i] is None), None)
        if v is None:
            return True
        for value in (True, False):
            assign[v] = value
            trail = [v]
            if propagate(v, trail) and dfs():
                return True
            for w in trail:
                assign[w] = None
        return False

    if dfs():
        return tuple(bool(assign[i]) for i in range(1, n + 1))
    return None


# --- restricted-form validation -------------------------------------------------


@dataclass(frozen=True)
class KsFormViolation:
    kind: str  # occurrence-limit | no-exact-two | shared-literals | repeated-variable | missing-polarity
    message: str
    variable: Optional[int] = None
    clauses: Optional[tuple[int, int]] = None


def _literal_occurrences(clauses: Sequence[Sequence[int]]) -> dict[int, list[int]]:
    """literal -> sorted clause indices containing it (each clause at most once)."""
    occ: dict[int, list[int]] = {}
    for ci, c in enumerate(clauses):
        for lit in set(c):
            occ.setdefault(lit, []).append(ci)
    return occ


def validate_ks_form(f: CnfFormula) -> list[KsFormViolation]:
    """Check the restricted occurrence conditions; empty result means valid.

    Reported kinds: a literal in more than 2 clauses; a variable with neither
    polarity in exactly 2 clauses; two clauses sharing more than one literal;
    a variable repeated inside a clause; and (separate flag) a variable
    missing one polarity, which the vector construction additionally needs.
    The variables that never occur are one missing-polarity violation that
    gives their count, so the work and the report grow with the clauses, not
    with the header's variable count.
    """
    violations: list[KsFormViolation] = []
    occ = _literal_occurrences(f.clauses)
    used = sorted({abs(lit) for lit in occ})
    for v in used:
        pos, neg = len(occ.get(v, ())), len(occ.get(-v, ()))
        if pos > 2:
            violations.append(KsFormViolation(
                "occurrence-limit", f"literal {v} appears in {pos} > 2 clauses", variable=v))
        if neg > 2:
            violations.append(KsFormViolation(
                "occurrence-limit", f"literal {-v} appears in {neg} > 2 clauses", variable=v))
        if pos != 2 and neg != 2:
            violations.append(KsFormViolation(
                "no-exact-two",
                f"variable {v}: neither polarity appears in exactly 2 clauses "
                f"(counts {pos}/{neg})", variable=v))
        if pos == 0 or neg == 0:
            violations.append(KsFormViolation(
                "missing-polarity",
                f"variable {v} occurs only as {'positive' if neg == 0 else 'negative'} literal",
                variable=v))
    if len(used) < f.num_vars:
        first = next(v for v, u in enumerate(used + [0], start=1) if v != u)  # smallest unused
        violations.append(KsFormViolation(
            "missing-polarity",
            f"{f.num_vars - len(used)} of {f.num_vars} variables never occur "
            f"(the first is {first})", variable=first))
    # Two clauses share more than one literal iff they share a literal pair,
    # so index every clause by its pairs: later[i] holds the clauses j > i
    # that share some pair with clause i.
    by_pair: dict[tuple[int, int], list[int]] = {}
    later: dict[int, set[int]] = {}
    for j, clause in enumerate(f.clauses):
        for pair in itertools.combinations(sorted(set(clause)), 2):
            earlier = by_pair.setdefault(pair, [])
            for i in earlier:
                later.setdefault(i, set()).add(j)
            earlier.append(j)
    for i, clause in enumerate(f.clauses):
        if len({abs(l) for l in clause}) != 3:
            violations.append(KsFormViolation(
                "repeated-variable", f"clause {i} repeats a variable: {clause}",
                clauses=(i, i)))
        for j in sorted(later.get(i, ())):
            shared = set(clause) & set(f.clauses[j])
            violations.append(KsFormViolation(
                "shared-literals",
                f"clauses {i} and {j} share literals {sorted(shared)}", clauses=(i, j)))
    return violations


# --- stage 1: arbitrary 3-CNF -> restricted form --------------------------------


@dataclass(frozen=True)
class VarSplit:
    """Where an original variable went: its per-occurrence copies and chain helpers."""

    copies: tuple[int, ...]
    chain: tuple[int, ...]


def _expand_duplicate_variables(f: CnfFormula):
    """Rewrite clauses that repeat a variable into simple ones (or detect unsat).

    A clause listing one variable three times with equal polarity can never
    hold at-least-one-true and at-least-one-false, so the formula is
    unsatisfiable (returns None).  A clause containing both polarities of a
    variable always holds and is dropped.  A doubled literal next to a second
    variable means exactly "those two literals differ", which a fresh helper
    variable expresses as two simple clauses.
    """
    clauses: list[tuple[int, int, int]] = []
    next_fresh = f.num_vars + 1
    for c in f.clauses:
        variables = [abs(l) for l in c]
        if len(set(variables)) == 3:
            clauses.append(c)
            continue
        if len(set(c)) == 1:
            return None
        if any(-l in c for l in c):
            continue  # opposite polarities present: always one true, one false
        # exactly one doubled literal plus a distinct second variable
        doubled = next(l for l in c if c.count(l) == 2)
        other = next(l for l in c if abs(l) != abs(doubled))
        z = next_fresh
        next_fresh += 1
        clauses.append((doubled, other, z))
        clauses.append((doubled, other, -z))
    return clauses


def nae3sat_to_ks_form(f: CnfFormula) -> tuple[CnfFormula, dict[int, VarSplit]]:
    """Rewrite a 3-CNF into restricted form, preserving NAE-satisfiability.

    Clauses repeating a variable are first expanded into simple ones.
    Single-occurrence variables are then eliminated together with their
    clause (iterated to a fixpoint, since each removal can orphan further
    variables).  Every surviving variable's occurrences are replaced by
    fresh copies; an odd cycle of chain clauses over helper variables forces
    all copies to take the same value.  The output is re-validated and the
    mapping from original variables to their copies and helpers is returned.
    """
    clauses = _expand_duplicate_variables(f)
    if clauses is None:
        return F_UNSAT4, {}  # an inherently false clause: unsatisfiable

    # Removal fixpoint: a variable occurring exactly once always lets its
    # clause be satisfied, so the clause goes (and may orphan others).
    while True:
        occ = _literal_occurrences(clauses)
        lonely = [lit for lit, cls in occ.items() if len(cls) == 1 and -lit not in occ]
        if not lonely:
            break
        del clauses[occ[min(lonely, key=abs)][0]]

    next_var = 1
    varmap: dict[int, VarSplit] = {}
    renamed: dict[tuple[int, int], int] = {}  # (clause index, literal) -> copy literal
    extra_clauses: list[tuple[int, int, int]] = []

    for v in sorted({abs(lit) for lit in occ}):
        # Positive occurrences take the first copies, negative ones the rest,
        # each in clause order.
        uses = [(ci, lit) for lit in (v, -v) for ci in occ.get(lit, ())]
        n = len(uses)
        copies = list(range(next_var, next_var + n))
        next_var += n
        n_chain = max(n if n % 2 == 1 else n + 1, 3)
        chain = list(range(next_var, next_var + n_chain))
        next_var += n_chain
        varmap[v] = VarSplit(tuple(copies), tuple(chain))
        for x, (ci, lit) in zip(copies, uses):
            renamed[ci, lit] = x if lit > 0 else -x
        for i in range(n):
            extra_clauses.append((copies[i], -copies[(i + 1) % n], chain[i]))
        for i in range(n_chain):
            extra_clauses.append((-chain[i], -chain[(i + 1) % n_chain], chain[(i + 2) % n_chain]))

    rewritten = [tuple(renamed[ci, lit] for lit in c) for ci, c in enumerate(clauses)]
    out = CnfFormula(next_var - 1, tuple(rewritten + extra_clauses))
    bad = validate_ks_form(out)
    if bad:
        raise InternalInvariantError(
            f"rewriting produced a non-conforming formula: {bad[0].message}")
    return out, varmap


# --- stage 2: restricted form -> vector instance ---------------------------------


@dataclass(frozen=True)
class ReductionLayout:
    """Where a constructed instance keeps each clause, variable and literal.

    Clause j owns dimension j and vector j.  Variable v owns dimension
    num_clauses + v - 1.  Literal +v owns the four vectors that start at
    num_clauses + 8(v - 1), and -v owns the next four.  literal_clauses maps
    each literal +-v to the ascending indices of the clauses containing it.
    """

    num_clauses: int
    num_vars: int
    literal_clauses: dict[int, tuple[int, ...]]

    @property
    def expected_dim(self) -> int:
        return self.num_clauses + self.num_vars

    @property
    def expected_vectors(self) -> int:
        return self.num_clauses + 8 * self.num_vars

    def var_dim(self, v: int) -> int:
        return self.num_clauses + abs(v) - 1

    def literal_vecs(self, lit: int) -> tuple[int, int, int, int]:
        start = self.num_clauses + 8 * (abs(lit) - 1) + (4 if lit < 0 else 0)
        return tuple(range(start, start + 4))

    def clauses(self) -> list[tuple[int, ...]]:
        """Reconstruct the clause list (literal order normalized by |literal|)."""
        out: list[list[int]] = [[] for _ in range(self.num_clauses)]
        for lit, cls in self.literal_clauses.items():
            for ci in cls:
                out[ci].append(lit)
        return [tuple(sorted(c, key=abs)) for c in out]


def _layout(f: CnfFormula) -> ReductionLayout:
    """The layout of the instance built from a restricted-form formula."""
    occ = _literal_occurrences(f.clauses)
    return ReductionLayout(f.num_clauses, f.num_vars, {
        lit: tuple(occ.get(lit, ())) for v in range(1, f.num_vars + 1) for lit in (v, -v)})


def ks_form_to_instance(f: CnfFormula) -> tuple[Instance, ReductionLayout]:
    """Construct the isotropic vector family for a restricted-form formula.

    One dimension and one half-unit vector per clause; one dimension per
    variable; four vectors per literal carrying +-1/4 on its clause
    dimensions and +-1/sqrt(8) on its variable dimension (a single-occurrence
    literal drops the second clause column).  The output is validated to be
    isotropic within 1e-9 and has alpha = 1/4 exactly.
    """
    violations = validate_ks_form(f)
    missing = [v for v in violations if v.kind == "missing-polarity"]
    if missing:
        raise MissingPolarity(missing[0].message)
    if violations:
        raise NotKsForm(violations[0].message)
    if f.num_clauses == 0 or f.num_vars == 0:
        raise EmptyInstance("cannot construct an instance from an empty formula")

    layout = _layout(f)
    mc = f.num_clauses
    vectors = np.zeros((layout.expected_vectors, layout.expected_dim))
    vectors[range(mc), range(mc)] = 0.5
    for lit, cls in layout.literal_clauses.items():
        rows = list(layout.literal_vecs(lit))
        vectors[rows, cls[0]] = 0.25  # cls is ascending; the first is the "c_j" column
        if len(cls) == 2:
            vectors[rows, cls[1]] = [0.25, 0.25, -0.25, -0.25]
        vectors[rows, layout.var_dim(lit)] = [RSQRT8, -RSQRT8, RSQRT8, -RSQRT8]

    inst = Instance(vectors, meta={"kind": "reduction", "clauses": mc, "vars": f.num_vars})
    inst = validate(inst, iso_tol=1e-9)
    if inst.alpha != 0.25:
        raise InternalInvariantError(f"constructed alpha = {inst.alpha!r}, expected 0.25")
    return inst, layout


# --- assignment <-> subset maps ---------------------------------------------------


def assignment_to_subset(layout: ReductionLayout, assignment: Sequence[bool]) -> tuple[int, ...]:
    """Subset whose outer-product sum is exactly I/2, given a NAE-satisfying assignment.

    Takes the positive quadruple of every true variable, the negative
    quadruple of every false one, and the clause vector of every clause with
    exactly one true literal.
    """
    if len(assignment) != layout.num_vars:
        raise BadAssignment(f"assignment length {len(assignment)} vs {layout.num_vars}")
    subset: list[int] = []
    for j, c in enumerate(layout.clauses()):
        if not _nae_ok(c, assignment):
            raise NotSatisfying(f"clause {c} has all-equal literal values")
        if sum(_literal_value(lit, assignment) for lit in c) == 1:
            subset.append(j)
    for v, value in enumerate(assignment, start=1):
        subset.extend(layout.literal_vecs(v if value else -v))
    return tuple(sorted(subset))


@dataclass(frozen=True)
class NotDecodable:
    """Subset does not split into one full quadruple per variable."""

    variable: int
    reason: str


def _quad_counts(layout: ReductionLayout, distinct: Iterable[int]) -> list[tuple[int, int]]:
    """Per variable v, how many vectors of +v's and of -v's quadruple the indices hold."""
    mc, end, counts = layout.num_clauses, layout.expected_vectors, [0] * (2 * layout.num_vars)
    for i in distinct:
        if mc <= i < end:
            counts[(i - mc) // 4] += 1
    return list(zip(counts[::2], counts[1::2]))


def subset_to_assignment(layout: ReductionLayout, subset: Sequence[int]):
    """Decode a subset into an assignment, or explain why it cannot be decoded.

    Decodes iff every variable contributes exactly one polarity's full
    quadruple and nothing from the other; clause vectors are ignored.
    """
    counts = _quad_counts(layout, {int(i) for i in subset})
    for v, (pos, neg) in enumerate(counts, start=1):
        if {pos, neg} != {0, 4}:
            return NotDecodable(v, f"variable {v} has {pos}/{neg} vectors of each quadruple")
    return tuple(pos == 4 for pos, _ in counts)


# --- violation witness -------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """A unit direction along which the subset's quadratic form misses 1/2."""

    y: np.ndarray
    value: float
    kind: str  # variable-count | partial-quadruple | unsatisfied-clause
    variable: Optional[int] = None
    literal: Optional[int] = None
    clause: Optional[int] = None


def find_violation(layout: ReductionLayout, inst: Instance, subset: Sequence[int]):
    """Witness that a subset fails the half-band, or None if it encodes a solution.

    Case analysis in order: (1) a variable with other than 4 of its 8
    vectors present gives an axis deviation of at least 1/8; (2) otherwise a
    literal with a strict part of its quadruple present gives, through one of
    its three dimension pairs, a two-coordinate unit direction with deviation
    at least 1/(8*sqrt(2)); (3) otherwise the subset decodes to an
    assignment, and an NAE-unsatisfied clause gives an axis deviation of at
    least 1/4.  Returns None exactly when the decoded assignment NAE-satisfies
    every clause.
    """
    if inst.dim != layout.expected_dim or inst.num_vectors != layout.expected_vectors:
        raise LayoutMismatch(
            f"instance ({inst.num_vectors} vectors, dim {inst.dim}) vs layout "
            f"({layout.expected_vectors}, {layout.expected_dim})")
    s = sorted({int(i) for i in subset})
    if s and (s[0] < 0 or s[-1] >= inst.num_vectors):
        raise BadSubset(f"subset indices out of range 0..{inst.num_vectors - 1}")
    b = inst.gram(s).a
    y = np.zeros(inst.dim)  # the witness direction
    counts = _quad_counts(layout, s)

    # Case 1: wrong per-variable vector count.
    for v, (pos, neg) in enumerate(counts, start=1):
        if pos + neg != 4:
            dx = layout.var_dim(v)
            y[dx] = 1.0
            return Violation(y, abs(b[dx, dx] - 0.5), "variable-count", variable=v)

    # Case 2: a variable whose quadruples are both partial.  At least one of
    # its polarities occurs in exactly two clauses; that literal's three
    # dimension pairs contain an off-diagonal entry of magnitude >= 1/(8*sqrt(2)).
    for v, (pos, _) in enumerate(counts, start=1):
        if pos % 4 == 0:
            continue
        lit = v if len(layout.literal_clauses[v]) == 2 else -v
        dx = layout.var_dim(v)
        cj, ck = layout.literal_clauses[lit]
        pairs = [(dx, cj), (dx, ck), (cj, ck)]
        d1, d2 = max(pairs, key=lambda p: abs(b[p[0], p[1]]))
        off = b[d1, d2]
        same_sign = np.sign(b[d1, d1] + b[d2, d2] - 1.0) == np.sign(off)
        y[d1] = 1.0 / math.sqrt(2.0)
        y[d2] = (1.0 if same_sign else -1.0) / math.sqrt(2.0)
        value = abs(float(y @ b @ y) - 0.5)
        return Violation(y, value, "partial-quadruple", variable=v, literal=lit)

    # Case 3: full quadruples everywhere; decode and test each clause.
    decoded = tuple(pos == 4 for pos, _ in counts)
    for j, clause in enumerate(layout.clauses()):
        if not _nae_ok(clause, decoded):
            y[j] = 1.0
            return Violation(y, abs(b[j, j] - 0.5), "unsatisfied-clause", clause=j)
    return None


# --- layout serialization ----------------------------------------------------------

_LAYOUT_KEYS = ("num_clauses", "num_vars", "literal_clauses")


def layout_to_json(layout: ReductionLayout) -> str:
    obj = {
        "num_clauses": layout.num_clauses,
        "num_vars": layout.num_vars,
        "literal_clauses": {str(k): list(v) for k, v in layout.literal_clauses.items()},
    }
    return json.dumps(obj, indent=2) + "\n"


def layout_from_json(text: str) -> ReductionLayout:
    """Parse a layout file; LayoutMismatch unless it holds exactly the keys
    num_clauses, num_vars and literal_clauses, its literals are exactly
    +-1..+-num_vars, and the clauses it spells out are in restricted form."""
    obj = _parse_json(text, LayoutMismatch)
    if not isinstance(obj, dict) or sorted(obj) != sorted(_LAYOUT_KEYS):
        raise LayoutMismatch(
            f"a layout file has exactly the keys {', '.join(_LAYOUT_KEYS)}; "
            "re-run `ks reduce ... --layout` to regenerate one written by an older version")
    nc, nv, lc = (obj[k] for k in _LAYOUT_KEYS)
    if not (_is_json(nc, int) and _is_json(nv, int) and nc >= 0 and nv >= 0
            and isinstance(lc, dict) and len(lc) == 2 * nv
            and set(lc) == {str(lit) for v in range(1, nv + 1) for lit in (v, -v)}):
        raise LayoutMismatch("layout literals are not exactly +-1..+-num_vars")
    if not (all(isinstance(cls, list) and all(_is_json(j, int) and 0 <= j < nc for j in cls)
                for cls in lc.values())
            and sum(len(cls) for cls in lc.values()) == 3 * nc):
        raise LayoutMismatch("layout clause lists do not name each of its clauses three times")
    layout = ReductionLayout(nc, nv, {int(k): tuple(cls) for k, cls in lc.items()})
    try:
        f = CnfFormula(nv, tuple(layout.clauses()))
    except Not3Cnf as exc:
        raise LayoutMismatch(f"layout clauses are not 3-literal: {exc}") from exc
    bad = validate_ks_form(f)
    if bad:
        raise LayoutMismatch(f"layout clauses are not in restricted form: {bad[0].message}")
    return _layout(f)


def save_layout(layout: ReductionLayout, path) -> None:
    with open(path, "w") as fh:
        fh.write(layout_to_json(layout))


def load_layout(path) -> ReductionLayout:
    with open(path) as fh:
        return layout_from_json(fh.read())

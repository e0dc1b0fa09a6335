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

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
from .instance import Instance, validate

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


def nae_eval(f: CnfFormula, assignment: Sequence[bool]) -> bool:
    """True iff every clause has at least one true and at least one false literal."""
    if len(assignment) != f.num_vars:
        raise BadAssignment(f"assignment length {len(assignment)} vs {f.num_vars} variables")
    for c in f.clauses:
        vals = [_literal_value(lit, assignment) for lit in c]
        if all(vals) or not any(vals):
            return False
    return True


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


def _literal_occurrences(f: CnfFormula) -> dict[int, list[int]]:
    """literal -> sorted clause indices containing it (each clause at most once)."""
    occ: dict[int, list[int]] = {}
    for ci, c in enumerate(f.clauses):
        for lit in set(c):
            occ.setdefault(lit, []).append(ci)
    return occ


def validate_ks_form(f: CnfFormula) -> list[KsFormViolation]:
    """Check the restricted occurrence conditions; empty result means valid.

    Reported kinds: a literal in more than 2 clauses; a variable with neither
    polarity in exactly 2 clauses; two clauses sharing more than one literal;
    a variable repeated inside a clause; and (separate flag) a variable
    missing one polarity, which the vector construction additionally needs.
    """
    violations: list[KsFormViolation] = []
    occ = _literal_occurrences(f)
    for v in range(1, f.num_vars + 1):
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
                f"variable {v} occurs only as "
                f"{'positive' if neg == 0 else 'negative'} literal"
                if pos or neg else f"variable {v} never occurs",
                variable=v))
    for i in range(f.num_clauses):
        ci = set(f.clauses[i])
        if len({abs(l) for l in f.clauses[i]}) != 3:
            violations.append(KsFormViolation(
                "repeated-variable", f"clause {i} repeats a variable: {f.clauses[i]}",
                clauses=(i, i)))
        for j in range(i + 1, f.num_clauses):
            shared = ci & set(f.clauses[j])
            if len(shared) > 1:
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
    return clauses, next_fresh - 1


# Clause pattern that is NAE-unsatisfiable while meeting every occurrence
# condition; used when the input contains an inherently false clause.
_UNSAT_PATTERN = ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3))


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
    expanded = _expand_duplicate_variables(f)
    if expanded is None:
        return CnfFormula(3, _UNSAT_PATTERN), {}
    clauses, _ = expanded

    def occurrence_counts(cls):
        counts: dict[int, int] = {}
        for c in cls:
            for lit in c:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        return counts

    # Removal fixpoint: a variable occurring exactly once always lets its
    # clause be satisfied, so the clause goes (and may orphan others).
    while True:
        counts = occurrence_counts(clauses)
        lonely = sorted(v for v, k in counts.items() if k == 1)
        if not lonely:
            break
        v = lonely[0]
        clauses = [c for c in clauses if v not in {abs(l) for l in c}]

    counts = occurrence_counts(clauses)
    survivors = sorted(counts)

    next_var = 1
    varmap: dict[int, VarSplit] = {}
    pos_queue: dict[int, list[int]] = {}
    neg_queue: dict[int, list[int]] = {}
    extra_clauses: list[tuple[int, int, int]] = []

    for v in survivors:
        n1 = sum(1 for c in clauses for lit in c if lit == v)
        n2 = sum(1 for c in clauses for lit in c if lit == -v)
        n = n1 + n2
        copies = list(range(next_var, next_var + n))
        next_var += n
        n_chain = n if n % 2 == 1 else n + 1
        n_chain = max(n_chain, 3)
        chain = list(range(next_var, next_var + n_chain))
        next_var += n_chain
        varmap[v] = VarSplit(tuple(copies), tuple(chain))
        # Positive occurrences consume copies 1..n1, negative ones n1+1..n.
        pos_queue[v] = copies[:n1]
        neg_queue[v] = copies[n1:]
        for i in range(n):
            extra_clauses.append((copies[i], -copies[(i + 1) % n], chain[i]))
        for i in range(n_chain):
            extra_clauses.append((-chain[i], -chain[(i + 1) % n_chain], chain[(i + 2) % n_chain]))

    rewritten: list[tuple[int, int, int]] = []
    for c in clauses:
        new_c = []
        for lit in c:
            if lit > 0:
                new_c.append(pos_queue[lit].pop(0))
            else:
                new_c.append(-neg_queue[-lit].pop(0))
        rewritten.append(tuple(new_c))

    out = CnfFormula(next_var - 1, tuple(rewritten + extra_clauses))
    bad = validate_ks_form(out)
    if bad:
        raise InternalInvariantError(
            f"rewriting produced a non-conforming formula: {bad[0].message}")
    return out, varmap


# --- stage 2: restricted form -> vector instance ---------------------------------


@dataclass(frozen=True)
class ReductionLayout:
    """Dimension and vector bookkeeping for a constructed instance.

    Dimensions 0..num_clauses-1 belong to clauses, the rest to variables.
    Vector 0..num_clauses-1 are the clause vectors; each literal owns a
    quadruple of consecutive vector indices.
    """

    num_clauses: int
    num_vars: int
    clause_dims: dict[int, int]
    var_dims: dict[int, int]
    clause_vecs: dict[int, int]
    literal_vecs: dict[int, tuple[int, int, int, int]]
    literal_clauses: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def expected_dim(self) -> int:
        return self.num_clauses + self.num_vars

    @property
    def expected_vectors(self) -> int:
        return self.num_clauses + 8 * self.num_vars

    def clauses(self) -> list[tuple[int, ...]]:
        """Reconstruct the clause list (literal order normalized by |literal|)."""
        out: list[list[int]] = [[] for _ in range(self.num_clauses)]
        for lit, cls in self.literal_clauses.items():
            for ci in cls:
                out[ci].append(lit)
        return [tuple(sorted(c, key=abs)) for c in out]


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

    occ = _literal_occurrences(f)
    mc, nv = f.num_clauses, f.num_vars
    clause_dims = {j: j for j in range(mc)}
    var_dims = {v: mc + (v - 1) for v in range(1, nv + 1)}
    clause_vecs = {j: j for j in range(mc)}
    literal_vecs: dict[int, tuple[int, int, int, int]] = {}
    literal_clauses: dict[int, tuple[int, ...]] = {}

    d = mc + nv
    m = mc + 8 * nv
    vectors = np.zeros((m, d))
    for j in range(mc):
        vectors[j, clause_dims[j]] = 0.5

    next_vec = mc
    for v in range(1, nv + 1):
        for lit in (v, -v):
            cls = tuple(occ.get(lit, ()))  # sorted ascending; first is the "c_j" column
            literal_clauses[lit] = cls
            quad = tuple(range(next_vec, next_vec + 4))
            literal_vecs[lit] = quad
            next_vec += 4
            dx = var_dims[v]
            signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # (d^c_k sign, d^x sign) rows 1..4
            for row, (sk, sx) in zip(quad, signs):
                vectors[row, clause_dims[cls[0]]] = 0.25
                if len(cls) == 2:
                    vectors[row, clause_dims[cls[1]]] = sk * 0.25
                vectors[row, dx] = sx * RSQRT8

    layout = ReductionLayout(mc, nv, clause_dims, var_dims, clause_vecs,
                             literal_vecs, literal_clauses)
    inst = Instance(vectors, meta={"kind": "reduction", "clauses": mc, "vars": nv})
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
    clauses = layout.clauses()
    true_counts = []
    for c in clauses:
        vals = [_literal_value(lit, assignment) for lit in c]
        if all(vals) or not any(vals):
            raise NotSatisfying(f"clause {c} has all-equal literal values")
        true_counts.append(sum(vals))
    subset: list[int] = []
    for v in range(1, layout.num_vars + 1):
        lit = v if assignment[v - 1] else -v
        subset.extend(layout.literal_vecs[lit])
    for j, t in enumerate(true_counts):
        if t == 1:
            subset.append(layout.clause_vecs[j])
    return tuple(sorted(subset))


@dataclass(frozen=True)
class NotDecodable:
    """Subset does not split into one full quadruple per variable."""

    variable: int
    reason: str


def subset_to_assignment(layout: ReductionLayout, subset: Sequence[int]):
    """Decode a subset into an assignment, or explain why it cannot be decoded.

    Decodes iff every variable contributes exactly one polarity's full
    quadruple and nothing from the other; clause vectors are ignored.
    """
    s = set(int(i) for i in subset)
    values: list[bool] = []
    for v in range(1, layout.num_vars + 1):
        pos = sum(1 for i in layout.literal_vecs[v] if i in s)
        neg = sum(1 for i in layout.literal_vecs[-v] if i in s)
        if pos == 4 and neg == 0:
            values.append(True)
        elif neg == 4 and pos == 0:
            values.append(False)
        else:
            return NotDecodable(v, f"variable {v} has {pos}/{neg} vectors of each quadruple")
    return tuple(values)


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
    s = sorted(set(int(i) for i in subset))
    if s and (s[0] < 0 or s[-1] >= inst.num_vectors):
        raise BadSubset(f"subset indices out of range 0..{inst.num_vectors - 1}")
    b = inst.gram(s).a
    d = inst.dim

    def axis(dim_index: int) -> np.ndarray:
        y = np.zeros(d)
        y[dim_index] = 1.0
        return y

    in_s = set(s)

    # Case 1: wrong per-variable vector count.
    for v in range(1, layout.num_vars + 1):
        count = sum(1 for i in layout.literal_vecs[v] + layout.literal_vecs[-v] if i in in_s)
        if count != 4:
            dx = layout.var_dims[v]
            return Violation(axis(dx), abs(b[dx, dx] - 0.5), "variable-count", variable=v)

    # Case 2: a literal with a strict part of its quadruple.  Among the two
    # polarities (both are then partial) at least one occurs in exactly two
    # clauses; its three dimension pairs contain an off-diagonal entry of
    # magnitude >= 1/(8*sqrt(2)).
    for v in range(1, layout.num_vars + 1):
        pos_count = sum(1 for i in layout.literal_vecs[v] if i in in_s)
        if pos_count % 4 == 0:
            continue
        for lit in (v, -v):
            if len(layout.literal_clauses[lit]) != 2:
                continue
            k = sum(1 for i in layout.literal_vecs[lit] if i in in_s)
            if not 1 <= k <= 3:
                continue
            dx = layout.var_dims[v]
            cj, ck = (layout.clause_dims[c] for c in layout.literal_clauses[lit])
            pairs = [(dx, cj), (dx, ck), (cj, ck)]
            d1, d2 = max(pairs, key=lambda p: abs(b[p[0], p[1]]))
            off = b[d1, d2]
            same_sign = np.sign(b[d1, d1] + b[d2, d2] - 1.0) == np.sign(off)
            y = np.zeros(d)
            y[d1] = 1.0 / math.sqrt(2.0)
            y[d2] = (1.0 if same_sign else -1.0) / math.sqrt(2.0)
            value = abs(float(y @ b @ y) - 0.5)
            return Violation(y, value, "partial-quadruple", variable=v, literal=lit)

    # Case 3: full quadruples everywhere; decode and test each clause.
    decoded = subset_to_assignment(layout, s)
    if isinstance(decoded, NotDecodable):  # unreachable given cases 1-2
        raise InternalInvariantError(f"decode failed after case analysis: {decoded.reason}")
    for j, clause in enumerate(layout.clauses()):
        vals = [_literal_value(lit, decoded) for lit in clause]
        if all(vals) or not any(vals):
            dc = layout.clause_dims[j]
            return Violation(axis(dc), abs(b[dc, dc] - 0.5), "unsatisfied-clause", clause=j)
    return None


# --- layout serialization ----------------------------------------------------------


def layout_to_json(layout: ReductionLayout) -> str:
    obj = {
        "num_clauses": layout.num_clauses,
        "num_vars": layout.num_vars,
        "clause_dims": {str(k): v for k, v in layout.clause_dims.items()},
        "var_dims": {str(k): v for k, v in layout.var_dims.items()},
        "clause_vecs": {str(k): v for k, v in layout.clause_vecs.items()},
        "literal_vecs": {str(k): list(v) for k, v in layout.literal_vecs.items()},
        "literal_clauses": {str(k): list(v) for k, v in layout.literal_clauses.items()},
    }
    return json.dumps(obj, indent=2) + "\n"


def layout_from_json(text: str) -> ReductionLayout:
    """Parse a layout file; LayoutMismatch unless it names every dimension and
    vector once and every clause in exactly three literals."""
    obj = json.loads(text)
    try:
        layout = ReductionLayout(
            num_clauses=int(obj["num_clauses"]),
            num_vars=int(obj["num_vars"]),
            clause_dims={int(k): int(v) for k, v in obj["clause_dims"].items()},
            var_dims={int(k): int(v) for k, v in obj["var_dims"].items()},
            clause_vecs={int(k): int(v) for k, v in obj["clause_vecs"].items()},
            literal_vecs={int(k): tuple(v) for k, v in obj["literal_vecs"].items()},
            literal_clauses={int(k): tuple(v) for k, v in obj["literal_clauses"].items()},
        )
        dims = [*layout.clause_dims.values(), *layout.var_dims.values()]
        vecs = [*layout.clause_vecs.values()] + [i for q in layout.literal_vecs.values() for i in q]
        refs = [j for cls in layout.literal_clauses.values() for j in cls]
        ok = (sorted(dims) == list(range(layout.expected_dim))
              and sorted(vecs) == list(range(layout.expected_vectors))
              and sorted(refs) == sorted(3 * list(range(layout.num_clauses))))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise LayoutMismatch(f"malformed layout file: {exc!r}") from exc
    if not ok:
        raise LayoutMismatch("layout indices do not cover its dimensions, vectors and clauses")
    return layout


def save_layout(layout: ReductionLayout, path) -> None:
    with open(path, "w") as fh:
        fh.write(layout_to_json(layout))


def load_layout(path) -> ReductionLayout:
    with open(path) as fh:
        return layout_from_json(fh.read())

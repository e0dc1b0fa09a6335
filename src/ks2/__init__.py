"""Toolkit for the algorithmic Kadison-Singer subset problem (KS2).

Provides: an isotropic-instance data model with generators and file I/O; a
randomised level-set solver, walked depth first, backed by online spectral
sparsifiers; an exact branch-and-bound discrepancy oracle; and the NAE-3SAT
reduction pipeline that builds hard vector instances with verifiable
certificates.
"""

from .errors import KsError
from .instance import (
    Instance,
    SubsetReport,
    check_subset,
    gen_planted,
    gen_random,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_subset,
    save_instance,
    save_subset,
    subset_distance,
    validate,
)
from .linalg import (
    SymMatrix,
    distance_half,
    eig_extremes_stack,
    inv_sqrt,
    psd_sandwich_check,
    spd_solve,
)
from .oracle import OracleResult, branch_bound_w, brute_force_w, with_threshold
from .reduction import (
    CnfFormula,
    F_SAT3,
    F_UNSAT4,
    NotDecodable,
    ReductionLayout,
    Violation,
    assignment_to_subset,
    emit_dimacs,
    find_violation,
    ks_form_to_instance,
    nae3sat_to_ks_form,
    nae_brute_solve,
    nae_eval,
    parse_dimacs,
    subset_to_assignment,
    validate_ks_form,
)
from .solver import SolveOutcome, SolverParams, derive_params, solve
from .sparsifier import SparsifierState, new_state, observe, sample_probability

__version__ = "0.1.0"

__all__ = [
    "KsError",
    "Instance", "SubsetReport", "check_subset", "gen_planted", "gen_random",
    "instance_from_json", "instance_to_json", "load_instance", "load_subset",
    "save_instance", "save_subset", "subset_distance", "validate",
    "SymMatrix", "distance_half", "eig_extremes_stack", "inv_sqrt", "psd_sandwich_check",
    "spd_solve",
    "OracleResult", "branch_bound_w", "brute_force_w", "with_threshold",
    "CnfFormula", "F_SAT3", "F_UNSAT4", "NotDecodable", "ReductionLayout",
    "Violation", "assignment_to_subset", "emit_dimacs", "find_violation",
    "ks_form_to_instance", "nae3sat_to_ks_form", "nae_brute_solve", "nae_eval",
    "parse_dimacs", "subset_to_assignment", "validate_ks_form",
    "SolveOutcome", "SolverParams", "derive_params", "solve",
    "SparsifierState", "new_state", "observe", "sample_probability",
]

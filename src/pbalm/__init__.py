"""Proximal bounded augmented Lagrangian solvers for structured
constrained optimization, with a QPS reader and benchmark tooling.

The top level exports the user-facing API; the building blocks (penalty
and multiplier updates, augmented-Lagrangian evaluations, the inner
solver) stay importable from their own modules.
"""

from .inner import InnerConfig
from .outer import (
    GrowthFn,
    InfeasibleStartError,
    OuterConfig,
    SolveResult,
    SolveStatus,
    Variant,
    run,
)
from .phase1 import Phase1Failed, find_feasible
from .problem import ProblemSpec, box_problem_terms, check_feasible
from .problem_gen import gen_basis_pursuit, make_random_eq_qp, qp_problem
from .qps import QpData, QpsParseError, parse_qps, parse_qps_file, qp_to_problem

__version__ = "0.1.0"

__all__ = [
    "GrowthFn",
    "InfeasibleStartError",
    "InnerConfig",
    "OuterConfig",
    "Phase1Failed",
    "ProblemSpec",
    "QpData",
    "QpsParseError",
    "SolveResult",
    "SolveStatus",
    "Variant",
    "box_problem_terms",
    "check_feasible",
    "find_feasible",
    "gen_basis_pursuit",
    "make_random_eq_qp",
    "parse_qps",
    "parse_qps_file",
    "qp_problem",
    "qp_to_problem",
    "run",
]

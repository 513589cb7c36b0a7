"""lazysat: a CDCL SAT solver with lazy reimplication for chronological backtracking.

The solver supports four backtracking modes at runtime (ncb, wcb, rscb,
lscb), two conflict-analysis strategies, an executable invariant checker,
and a benchmark harness comparing propagation counts across modes.
"""

from .analyze import LearnedClause, minimize
from .checker import Violation, check_ids
from .formula import (
    Clause,
    DimacsError,
    Formula,
    lit_to_int,
    parse_dimacs,
    write_dimacs,
)
from .propagate import Propagator
from .solver import Solver, SolverConfig, Stats, Verdict, choose_backtrack_level
from .state import FALSE, INF, TRUE, UNDEF, TrailState

__all__ = [
    "Clause",
    "DimacsError",
    "FALSE",
    "Formula",
    "INF",
    "LearnedClause",
    "Propagator",
    "Solver",
    "SolverConfig",
    "Stats",
    "TRUE",
    "TrailState",
    "UNDEF",
    "Verdict",
    "Violation",
    "check_ids",
    "choose_backtrack_level",
    "lit_to_int",
    "minimize",
    "parse_dimacs",
    "write_dimacs",
]

__version__ = "0.1.0"

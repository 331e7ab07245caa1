"""In-repo CP-SAT-style solver: the OR-Tools substitute (DESIGN.md §1)."""

from repro.opg.cpsat.model import CpModel, ModelIndex, Solution, SolveStatus
from repro.opg.cpsat.search import CpSolver
from repro.opg.cpsat.stats import PropagationStats, SolverStats

__all__ = [
    "CpModel",
    "ModelIndex",
    "Solution",
    "SolveStatus",
    "CpSolver",
    "PropagationStats",
    "SolverStats",
]

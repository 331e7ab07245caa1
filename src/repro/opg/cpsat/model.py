"""A small CP-SAT-style constraint model (OR-Tools substitute).

Implements the modelling subset the OPG formulation needs (see DESIGN.md):

- bounded integer variables;
- linear constraints ``lo <= sum(c_i * v_i) <= hi`` with positive
  coefficients (all OPG sums are over non-negative chunk counts);
- implication constraints ``(x >= k) => (z <= bound)`` (constraint C1);
- a linear minimisation objective.

The model is a set of columns — one list entry per variable, linear and
implication — and a variable is its index into them, so building a model
allocates no per-variable object and the propagation engine reads the
columns in one pass.  The solver lives in :mod:`repro.opg.cpsat.search`;
propagation in :mod:`repro.opg.cpsat.bitset`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.opg.cpsat.stats import SolverStats


class SolveStatus(enum.Enum):
    """Solver outcome, mirroring OR-Tools CP-SAT statuses (paper Table 4)."""

    OPTIMAL = "OPTIMAL"
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ModelIndex:
    """The objective as the search reads it, built once at
    :meth:`CpModel.freeze` time."""

    #: Variables appearing in the objective (hoisted out of branching).
    obj_vars: FrozenSet[int]
    #: var index -> objective coefficient (for incremental bound updates).
    obj_coef: Dict[int, int]


class CpModel:
    """Variables, constraints and the objective, held as columns.

    Variable ``v`` (the int :meth:`new_int` returns) has the domain
    ``var_lo[v]..var_hi[v]`` and the decision hint ``var_hint[v]``.  Linear
    ``c`` is ``lin_lo[c] <= sum(coef * v for v, coef in lin_terms[c]) <=
    lin_hi[c]``; each implication is a ``(cond, cond_ge, then, then_ub)``
    tuple.  A name passed to ``new_int`` or ``add_linear`` only labels its error.
    """

    def __init__(self) -> None:
        self.var_lo: List[int] = []
        self.var_hi: List[int] = []
        #: Value the search tries first (like CP-SAT's AddHint), or None.
        self.var_hint: List[Optional[int]] = []
        self.lin_terms: List[Tuple[Tuple[int, int], ...]] = []
        self.lin_lo: List[int] = []
        self.lin_hi: List[int] = []
        #: ``(vars[cond] >= cond_ge) => (vars[then] <= then_ub)``.
        self.implications: List[Tuple[int, int, int, int]] = []
        #: Objective terms (var index, coefficient); minimised.  Coefficients
        #: may be negative (maximising a variable).
        self.objective: List[Tuple[int, int]] = []
        self.objective_offset: int = 0
        self._index: Optional[ModelIndex] = None

    # ---------------------------------------------------------------- build
    def new_int(self, lo: int, hi: int, name: str = "", *, hint: Optional[int] = None) -> int:
        """Add a variable with domain ``[lo, hi]``; returns its index."""
        if lo > hi:
            raise ValueError(f"{name or 'variable'}: empty domain [{lo}, {hi}]")
        self.var_lo.append(lo)
        self.var_hi.append(hi)
        self.var_hint.append(hint)
        return len(self.var_lo) - 1

    def add_linear(
        self,
        terms: Sequence[Tuple[int, int]],
        *,
        lo: int = 0,
        hi: int,
        name: str = "",
    ) -> int:
        """Add ``lo <= sum(coef * var) <= hi``; coefficients must be positive.
        Returns the constraint's index."""
        terms = tuple(terms)
        for _var, coef in terms:
            if coef <= 0:
                raise ValueError(f"{name or 'linear'}: coefficient must be positive, got {coef}")
        if lo > hi:
            raise ValueError(f"{name or 'linear'}: lo > hi")
        self.lin_terms.append(terms)
        self.lin_lo.append(lo)
        self.lin_hi.append(hi)
        return len(self.lin_lo) - 1

    def add_sum_eq(self, terms: Sequence[Tuple[int, int]], value: int, *, name: str = "") -> int:
        return self.add_linear(terms, lo=value, hi=value, name=name)

    def add_sum_le(self, terms: Sequence[Tuple[int, int]], bound: int, *, name: str = "") -> int:
        return self.add_linear(terms, lo=0, hi=bound, name=name)

    def add_implication(self, cond: int, cond_ge: int, then: int, then_ub: int) -> None:
        """``(cond >= cond_ge) => (then <= then_ub)`` — OPG constraint C1."""
        self.implications.append((cond, cond_ge, then, then_ub))

    def minimize(self, terms: Sequence[Tuple[int, int]], *, offset: int = 0) -> None:
        """Set the linear objective (replaces any previous objective)."""
        self.objective = list(terms)
        self.objective_offset = offset
        self._index = None

    def freeze(self) -> ModelIndex:
        """Build (or return the cached) objective index; setting a new
        objective invalidates it."""
        if self._index is None:
            obj_coef: Dict[int, int] = {}
            for idx, coef in self.objective:
                obj_coef[idx] = obj_coef.get(idx, 0) + coef
            self._index = ModelIndex(
                obj_vars=frozenset(idx for idx, _ in self.objective), obj_coef=obj_coef
            )
        return self._index

    # -------------------------------------------------------------- queries
    @property
    def num_variables(self) -> int:
        return len(self.var_lo)

    @property
    def num_constraints(self) -> int:
        return len(self.lin_terms) + len(self.implications)

    def objective_value(self, values: Sequence[int]) -> int:
        return self.objective_offset + sum(coef * values[idx] for idx, coef in self.objective)


@dataclass
class Solution:
    """Result of a solve call."""

    status: SolveStatus
    values: Optional[List[int]] = None
    objective: Optional[int] = None
    #: Search statistics (headline counters, kept for compatibility).
    nodes_explored: int = 0
    propagations: int = 0
    wall_time_s: float = 0.0
    #: Full observability: propagations by constraint kind, queue high-water
    #: mark, time in propagate / branch / bound (None for legacy callers
    #: that construct Solutions by hand).
    stats: Optional[SolverStats] = field(default=None, repr=False)

    @property
    def feasible(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def value_of(self, var: int) -> int:
        if self.values is None:
            raise RuntimeError("no solution values available")
        return self.values[var]

"""A small CP-SAT-style constraint model (OR-Tools substitute).

Implements the modelling subset the OPG formulation needs (see DESIGN.md):

- bounded integer variables;
- linear constraints ``lo <= sum(c_i * v_i) <= hi`` with non-negative
  coefficients (all OPG sums are over non-negative chunk counts);
- implication constraints ``(x >= k) => (z <= bound)`` (constraint C1);
- a linear minimisation objective.

The solver lives in :mod:`repro.opg.cpsat.search`; propagation in
:mod:`repro.opg.cpsat.bitset`.
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


@dataclass
class IntVar:
    """A bounded integer decision variable."""

    index: int
    lo: int
    hi: int
    name: str
    #: Value the search tries first (decision hint, like CP-SAT's AddHint).
    hint: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"{self.name}: empty domain [{self.lo}, {self.hi}]")


@dataclass
class LinearConstraint:
    """``lo <= sum(coef * var) <= hi`` with coef > 0."""

    terms: List[Tuple[int, int]]  # (var index, coefficient)
    lo: int
    hi: int
    name: str = ""


@dataclass
class Implication:
    """``(vars[cond] >= cond_ge) => (vars[then] <= then_ub)``."""

    cond: int
    cond_ge: int
    then: int
    then_ub: int
    name: str = ""


@dataclass(frozen=True)
class ModelIndex:
    """Var→constraint watch lists, built once at :meth:`CpModel.freeze` time.

    When variable ``v``'s bounds change, only ``var_linears[v]`` /
    ``var_implications[v]`` need re-evaluation instead of every constraint
    in the model (the bitset engine packs the same relation into per-var
    masks).
    """

    #: var index -> ids into ``model.linears`` mentioning the var.
    var_linears: Tuple[Tuple[int, ...], ...]
    #: var index -> ids into ``model.implications`` watching the var
    #: (as condition or consequent).
    var_implications: Tuple[Tuple[int, ...], ...]
    #: Variables appearing in the objective (hoisted out of branching).
    obj_vars: FrozenSet[int]
    #: var index -> objective coefficient (for incremental bound updates).
    obj_coef: Dict[int, int]


class CpModel:
    """Container for variables, constraints, and the objective."""

    def __init__(self) -> None:
        self.variables: List[IntVar] = []
        self.linears: List[LinearConstraint] = []
        self.implications: List[Implication] = []
        #: Objective terms (var index, coefficient); minimised.  Coefficients
        #: may be negative (maximising a variable).
        self.objective: List[Tuple[int, int]] = []
        self.objective_offset: int = 0
        self._index: Optional[ModelIndex] = None

    # ---------------------------------------------------------------- build
    def new_int(self, lo: int, hi: int, name: str, *, hint: Optional[int] = None) -> IntVar:
        var = IntVar(index=len(self.variables), lo=lo, hi=hi, name=name, hint=hint)
        self.variables.append(var)
        self._index = None
        return var

    def add_linear(
        self,
        terms: Sequence[Tuple[IntVar, int]],
        *,
        lo: int = 0,
        hi: int,
        name: str = "",
    ) -> LinearConstraint:
        """Add ``lo <= sum(coef * var) <= hi``; coefficients must be positive."""
        idx_terms = []
        for var, coef in terms:
            if coef <= 0:
                raise ValueError(f"{name}: coefficient must be positive, got {coef}")
            idx_terms.append((var.index, coef))
        if lo > hi:
            raise ValueError(f"{name}: lo > hi")
        con = LinearConstraint(terms=idx_terms, lo=lo, hi=hi, name=name)
        self.linears.append(con)
        self._index = None
        return con

    def add_sum_eq(self, terms: Sequence[Tuple[IntVar, int]], value: int, *, name: str = "") -> LinearConstraint:
        return self.add_linear(terms, lo=value, hi=value, name=name)

    def add_sum_le(self, terms: Sequence[Tuple[IntVar, int]], bound: int, *, name: str = "") -> LinearConstraint:
        return self.add_linear(terms, lo=0, hi=bound, name=name)

    def add_implication(self, cond: IntVar, cond_ge: int, then: IntVar, then_ub: int, *, name: str = "") -> Implication:
        """``(cond >= cond_ge) => (then <= then_ub)`` — OPG constraint C1."""
        imp = Implication(cond=cond.index, cond_ge=cond_ge, then=then.index, then_ub=then_ub, name=name)
        self.implications.append(imp)
        self._index = None
        return imp

    def minimize(self, terms: Sequence[Tuple[IntVar, int]], *, offset: int = 0) -> None:
        """Set the linear objective (replaces any previous objective)."""
        self.objective = [(var.index, coef) for var, coef in terms]
        self.objective_offset = offset
        self._index = None

    def freeze(self) -> ModelIndex:
        """Build (or return the cached) var→constraint index.

        Any later mutation of the model invalidates the cache, so callers
        may freeze eagerly and keep building.
        """
        if self._index is not None:
            return self._index
        n = len(self.variables)
        var_linears: List[List[int]] = [[] for _ in range(n)]
        for cid, con in enumerate(self.linears):
            for idx, _coef in con.terms:
                var_linears[idx].append(cid)
        var_implications: List[List[int]] = [[] for _ in range(n)]
        for iid, imp in enumerate(self.implications):
            var_implications[imp.cond].append(iid)
            if imp.then != imp.cond:
                var_implications[imp.then].append(iid)
        obj_coef: Dict[int, int] = {}
        for idx, coef in self.objective:
            obj_coef[idx] = obj_coef.get(idx, 0) + coef
        self._index = ModelIndex(
            var_linears=tuple(tuple(ids) for ids in var_linears),
            var_implications=tuple(tuple(ids) for ids in var_implications),
            obj_vars=frozenset(idx for idx, _ in self.objective),
            obj_coef=obj_coef,
        )
        return self._index

    # -------------------------------------------------------------- queries
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.linears) + len(self.implications)

    def objective_value(self, values: Sequence[int]) -> int:
        return self.objective_offset + sum(coef * values[idx] for idx, coef in self.objective)

    def validate_assignment(self, values: Sequence[int]) -> List[str]:
        """Return human-readable violations of ``values`` (empty if feasible)."""
        problems: List[str] = []
        if len(values) != len(self.variables):
            return [f"expected {len(self.variables)} values, got {len(values)}"]
        for var in self.variables:
            v = values[var.index]
            if not var.lo <= v <= var.hi:
                problems.append(f"{var.name}={v} outside [{var.lo}, {var.hi}]")
        for con in self.linears:
            total = sum(coef * values[idx] for idx, coef in con.terms)
            if not con.lo <= total <= con.hi:
                problems.append(f"{con.name or 'linear'}: {total} not in [{con.lo}, {con.hi}]")
        for imp in self.implications:
            if values[imp.cond] >= imp.cond_ge and values[imp.then] > imp.then_ub:
                problems.append(
                    f"{imp.name or 'implication'}: cond={values[imp.cond]} but then={values[imp.then]} > {imp.then_ub}"
                )
        return problems


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

    def value_of(self, var: IntVar) -> int:
        if self.values is None:
            raise RuntimeError("no solution values available")
        return self.values[var.index]

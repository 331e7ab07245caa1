"""CP oracles: the seed copy-based solver and its full-sweep propagation.

The production solver (:class:`repro.opg.cpsat.search.CpSolver` over
:class:`repro.opg.cpsat.bitset.BitsetState`) is checked against these:

- :class:`NaiveCpSolver` — the seed architecture: ``Domains.copy()`` per
  child node and a full constraint sweep to fixpoint after every branch.
  It is the differential-test oracle (the trail solver must agree with it,
  and with brute force, on status and optimal objective) and the baseline
  ``benchmarks/test_solver_throughput.py`` measures nodes/sec against;
- :func:`propagate` — the full-sweep fixpoint: re-scan every linear and
  implication up to ``max_passes`` times.  Bounds propagation is confluent,
  so the incremental engine must stop at exactly this fixpoint;
- :func:`objective_lower_bound` — the O(objective) re-scan the trail keeps
  incrementally;
- :func:`validate_assignment` — every violated domain, linear and
  implication constraint of a full assignment, so any solution a solver
  returns can be checked against the model it solved.

Both propagators tighten identically: linear constraints bound each
variable against the residual slack of the other terms (bounds
consistency for positive coefficients), and implications propagate both
directions (a triggered condition clamps the consequent's upper bound; a
violated consequent forbids the condition).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.opg.cpsat.model import CpModel, Solution, SolveStatus
from repro.opg.cpsat.search import CpSolver
from repro.opg.cpsat.stats import PropagationStats, SolverStats


class Domains:
    """Mutable per-variable bounds with copy support for search."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: List[int], hi: List[int]) -> None:
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_model(cls, model: CpModel) -> "Domains":
        return cls(list(model.var_lo), list(model.var_hi))

    def copy(self) -> "Domains":
        return Domains(list(self.lo), list(self.hi))

    def is_assigned(self, idx: int) -> bool:
        return self.lo[idx] == self.hi[idx]

    def all_assigned(self) -> bool:
        return all(l == h for l, h in zip(self.lo, self.hi))

    def assignment(self) -> List[int]:
        if not self.all_assigned():
            raise RuntimeError("domains not fully assigned")
        return list(self.lo)


def propagate(
    model: CpModel, domains: Domains, *, max_passes: int = 64
) -> Tuple[bool, PropagationStats]:
    """Run full-sweep propagation toward fixpoint (reference engine).

    Returns ``(consistent, stats)``: consistent is False when some domain
    became empty; ``stats.fixpoint_reached`` is False when ``max_passes``
    ran out while bounds were still moving (callers must not treat such a
    truncated run as converged).
    """
    lo, hi = domains.lo, domains.hi
    stats = PropagationStats(fixpoint_reached=False)
    for _ in range(max_passes):
        changed = False

        for terms, con_lo, con_hi in zip(model.lin_terms, model.lin_lo, model.lin_hi):
            stats.linear_props += 1
            # Current bounds of the sum.
            sum_lo = 0
            sum_hi = 0
            for idx, coef in terms:
                sum_lo += coef * lo[idx]
                sum_hi += coef * hi[idx]
            if sum_lo > con_hi or sum_hi < con_lo:
                stats.fixpoint_reached = True
                return False, stats
            for idx, coef in terms:
                term_lo = coef * lo[idx]
                term_hi = coef * hi[idx]
                rest_lo = sum_lo - term_lo
                rest_hi = sum_hi - term_hi
                # coef * v <= con_hi - rest_lo  ->  v <= floor((con_hi - rest_lo)/coef)
                new_hi = (con_hi - rest_lo) // coef
                # coef * v >= con_lo - rest_hi  ->  v >= ceil((con_lo - rest_hi)/coef)
                need = con_lo - rest_hi
                new_lo = -((-need) // coef) if need > 0 else lo[idx]
                if new_hi < hi[idx]:
                    hi[idx] = new_hi
                    changed = True
                    stats.tightenings += 1
                if new_lo > lo[idx]:
                    lo[idx] = new_lo
                    changed = True
                    stats.tightenings += 1
                if lo[idx] > hi[idx]:
                    stats.fixpoint_reached = True
                    return False, stats

        for cond, cond_ge, then, then_ub in model.implications:
            stats.implication_props += 1
            # cond >= cond_ge guaranteed -> then <= then_ub
            if lo[cond] >= cond_ge:
                if then_ub < hi[then]:
                    hi[then] = then_ub
                    changed = True
                    stats.tightenings += 1
                    if lo[then] > hi[then]:
                        stats.fixpoint_reached = True
                        return False, stats
            # then must exceed then_ub -> cond must stay below cond_ge
            if lo[then] > then_ub:
                if hi[cond] >= cond_ge:
                    hi[cond] = cond_ge - 1
                    changed = True
                    stats.tightenings += 1
                    if lo[cond] > hi[cond]:
                        stats.fixpoint_reached = True
                        return False, stats

        if not changed:
            stats.fixpoint_reached = True
            break
    return True, stats


def objective_lower_bound(model: CpModel, domains: Domains) -> int:
    """Optimistic objective value from current bounds (O(objective) re-scan;
    the trail solver maintains this incrementally instead)."""
    total = model.objective_offset
    for idx, coef in model.objective:
        total += coef * (domains.lo[idx] if coef > 0 else domains.hi[idx])
    return total


def validate_assignment(model: CpModel, values) -> List[str]:
    """Human-readable violations of ``values`` in ``model`` (empty if feasible)."""
    problems: List[str] = []
    if len(values) != len(model.var_lo):
        return [f"expected {len(model.var_lo)} values, got {len(values)}"]
    for idx, (lo, hi) in enumerate(zip(model.var_lo, model.var_hi)):
        if not lo <= values[idx] <= hi:
            problems.append(f"variable {idx}={values[idx]} outside [{lo}, {hi}]")
    for cid, (terms, lo, hi) in enumerate(zip(model.lin_terms, model.lin_lo, model.lin_hi)):
        total = sum(coef * values[idx] for idx, coef in terms)
        if not lo <= total <= hi:
            problems.append(f"linear {cid}: {total} not in [{lo}, {hi}]")
    for iid, (cond, cond_ge, then, then_ub) in enumerate(model.implications):
        if values[cond] >= cond_ge and values[then] > then_ub:
            problems.append(
                f"implication {iid}: cond={values[cond]} but then={values[then]} > {then_ub}"
            )
    return problems


class NaiveCpSolver:
    """Copy-based DFS branch-and-bound (the seed architecture)."""

    def __init__(self, *, time_limit_s: float = 10.0, max_nodes: int = 2_000_000) -> None:
        self.time_limit_s = time_limit_s
        self.max_nodes = max_nodes

    def solve(self, model: CpModel) -> Solution:
        start = time.perf_counter()
        deadline = start + self.time_limit_s
        root = Domains.from_model(model)
        stats = SolverStats()

        t0 = time.perf_counter()
        ok, props = propagate(model, root)
        stats.absorb(props)
        stats.time_propagate_s += time.perf_counter() - t0
        if not ok:
            stats.wall_time_s = time.perf_counter() - start
            return Solution(status=SolveStatus.INFEASIBLE, wall_time_s=stats.wall_time_s, stats=stats)
        root_bound = objective_lower_bound(model, root) if model.objective else None

        best_values: Optional[List[int]] = None
        best_obj: Optional[int] = None
        proven_by_bound = False
        timed_out = False
        node_budget_hit = False

        # Iterative DFS: stack of full domain-state copies to explore.
        stack: List[Domains] = [root]
        while stack:
            if time.perf_counter() > deadline:
                timed_out = True
                break
            if stats.nodes >= self.max_nodes:
                node_budget_hit = True
                break
            domains = stack.pop()
            stats.nodes += 1

            if best_obj is not None and model.objective:
                t0 = time.perf_counter()
                bound = objective_lower_bound(model, domains)
                stats.time_bound_s += time.perf_counter() - t0
                if bound >= best_obj:
                    continue  # cannot improve

            t0 = time.perf_counter()
            branch_var = self._select_variable(model, domains)
            stats.time_branch_s += time.perf_counter() - t0
            if branch_var is None:
                values = domains.assignment()
                obj = model.objective_value(values) if model.objective else 0
                if best_obj is None or obj < best_obj:
                    best_obj = obj
                    best_values = values
                    if not model.objective:
                        break  # satisfaction problem: first solution wins
                    if root_bound is not None and obj <= root_bound:
                        proven_by_bound = True
                        break
                continue

            for child_lo, child_hi in reversed(CpSolver._branches(model, domains, branch_var)):
                child = domains.copy()
                child.lo[branch_var] = child_lo
                child.hi[branch_var] = child_hi
                t0 = time.perf_counter()
                ok, props = propagate(model, child)
                stats.absorb(props)
                stats.time_propagate_s += time.perf_counter() - t0
                if ok:
                    stack.append(child)

        stats.wall_time_s = time.perf_counter() - start
        if best_values is None:
            status = SolveStatus.UNKNOWN if (timed_out or node_budget_hit) else SolveStatus.INFEASIBLE
            return Solution(
                status=status,
                nodes_explored=stats.nodes,
                propagations=stats.propagations,
                wall_time_s=stats.wall_time_s,
                stats=stats,
            )
        proven = proven_by_bound or not (timed_out or node_budget_hit)
        status = SolveStatus.OPTIMAL if proven else SolveStatus.FEASIBLE
        return Solution(
            status=status,
            values=best_values,
            objective=best_obj,
            nodes_explored=stats.nodes,
            propagations=stats.propagations,
            wall_time_s=stats.wall_time_s,
            stats=stats,
        )

    @staticmethod
    def _select_variable(model: CpModel, domains: Domains) -> Optional[int]:
        """Seed behaviour: rebuilds the objective-variable set at every node
        (the cost the trail solver hoists to freeze time)."""
        obj_vars = {idx for idx, _ in model.objective}
        best_idx: Optional[int] = None
        best_key: Optional[Tuple[int, int]] = None
        for idx in range(len(domains.lo)):
            width = domains.hi[idx] - domains.lo[idx]
            if width == 0:
                continue
            key = (0 if idx in obj_vars else 1, width)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        return best_idx

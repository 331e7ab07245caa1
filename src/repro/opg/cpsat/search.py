"""Trail-based branch-and-bound search for the CP model.

Depth-first search over one mutable domain store — the
:class:`~repro.opg.cpsat.bitset.BitsetState` — with:

- an undo trail: entering a branch records O(changes) entries and leaving
  pops them, instead of copying O(vars) domain arrays per child node;
- incremental propagation at every node: only the constraints watching the
  tightened bounds (and transitively affected ones) are re-evaluated;
- an incrementally-maintained objective lower bound (updated as bounds
  tighten) for one-comparison pruning against the incumbent;
- hint-guided value ordering (try the decision hint, then interval split);
- a node budget returning FEASIBLE with the incumbent (the paper's Table 4
  reports FEASIBLE where its large models hit their 150 s limit).  The
  budget counts work, not seconds, so every solve is a pure function of
  the model, whatever the machine's speed or load.

Every solve returns a :class:`SolverStats` on the Solution: nodes/sec,
propagations by constraint kind, trail depth, and the time split between
propagate / branch / bound.

The seed copy-based solver is the differential-test oracle and the
benchmark baseline; it lives under ``tests/oracles``, outside the package.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.opg.cpsat.bitset import BitsetState
from repro.opg.cpsat.model import CpModel, Solution, SolveStatus
from repro.opg.cpsat.stats import PropagationStats, SolverStats


class CpSolver:
    """Branch-and-bound solver bounded by a node budget.

    Branching is smallest-domain-first with objective variables first and
    the lowest index on ties (:meth:`BitsetState.select_variable`); values
    follow the decision hint, then an interval split.  Every choice is
    deterministic, so the returned solution is a pure function of the model
    and ``max_nodes``.
    """

    def __init__(self, *, max_nodes: int = 2_000_000) -> None:
        self.max_nodes = max_nodes

    def solve(self, model: CpModel) -> Solution:
        start = time.perf_counter()
        stats = SolverStats()
        state = BitsetState(model)
        has_obj = bool(model.objective)

        # One cumulative PropagationStats for the whole solve (allocating
        # per node costs ~10% at trail-solver node rates); folded into the
        # SolverStats once at exit.
        prop_stats = PropagationStats()
        t0 = time.perf_counter()
        ok = state.propagate_all(prop_stats)
        stats.time_propagate_s += time.perf_counter() - t0
        if not ok:
            stats.absorb(prop_stats)
            stats.wall_time_s = time.perf_counter() - start
            return Solution(status=SolveStatus.INFEASIBLE, wall_time_s=stats.wall_time_s, stats=stats)
        # If an incumbent ever matches the root relaxation bound it is
        # provably optimal — exit without exhausting the plateau.
        root_bound = state.lower_bound if has_obj else None

        best_values: Optional[List[int]] = None
        best_obj: Optional[int] = None
        proven_by_bound = False
        node_budget_hit = False

        lo, hi = state.lo, state.hi
        select = state.select_variable
        # Iterative DFS over branch ops.  Each entry restores the trail to
        # ``mark`` (the parent's state) and then applies ``var in
        # [child_lo, child_hi]``; the root sentinel applies nothing.
        stack: List[Tuple[int, int, int, int]] = [(state.mark(), -1, 0, 0)]
        while stack:
            if stats.nodes >= self.max_nodes:
                node_budget_hit = True
                break
            mark, var, child_lo, child_hi = stack.pop()
            stats.nodes += 1

            if var >= 0:
                t0 = time.perf_counter()
                state.undo_to(mark)
                if child_lo > lo[var]:
                    state.set_lo(var, child_lo)
                if child_hi < hi[var]:
                    state.set_hi(var, child_hi)
                # The trail updated the objective bound as the branch was
                # applied — prune before paying for propagation.
                pruned = best_obj is not None and has_obj and state.lower_bound >= best_obj
                stats.time_bound_s += time.perf_counter() - t0
                if pruned:
                    state.abandon()
                    continue

                t0 = time.perf_counter()
                ok = state.propagate_from(prop_stats)
                stats.time_propagate_s += time.perf_counter() - t0
                if not ok:
                    continue
                # Only a completed drain has a trail depth independent of
                # constraint order: a failed one stops at the conflict.
                if len(state.entries) > stats.trail_depth_peak:
                    stats.trail_depth_peak = len(state.entries)

            if best_obj is not None and has_obj and state.lower_bound >= best_obj:
                continue  # cannot improve

            t0 = time.perf_counter()
            branch_var = select()
            if branch_var is None:
                stats.time_branch_s += time.perf_counter() - t0
                values = list(lo)
                obj = model.objective_value(values) if has_obj else 0
                if best_obj is None or obj < best_obj:
                    best_obj = obj
                    best_values = values
                    if not has_obj:
                        break  # satisfaction problem: first solution wins
                    if root_bound is not None and obj <= root_bound:
                        proven_by_bound = True
                        break
                continue

            child_mark = state.mark()
            for b_lo, b_hi in reversed(self._branches(model, state, branch_var)):
                stack.append((child_mark, branch_var, b_lo, b_hi))
            stats.time_branch_s += time.perf_counter() - t0

        stats.absorb(prop_stats)
        stats.wall_time_s = time.perf_counter() - start
        if best_values is None:
            status = SolveStatus.UNKNOWN if node_budget_hit else SolveStatus.INFEASIBLE
            return Solution(
                status=status,
                nodes_explored=stats.nodes,
                propagations=stats.propagations,
                wall_time_s=stats.wall_time_s,
                stats=stats,
            )
        proven = proven_by_bound or not node_budget_hit
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

    # ------------------------------------------------------------- internals
    @staticmethod
    def _branches(model: CpModel, domains, idx: int) -> List[Tuple[int, int]]:
        """Branch plan for a variable, hint value first, then interval split.

        ``domains`` is anything with ``lo``/``hi`` bound sequences.  Returned
        in preference order (the caller pushes them reversed onto the DFS
        stack).
        """
        lo, hi = domains.lo[idx], domains.hi[idx]
        hint = model.var_hint[idx]
        branches: List[Tuple[int, int]] = []
        if hint is not None and lo <= hint <= hi:
            branches.append((hint, hint))
            if hint > lo:
                branches.append((lo, hint - 1))
            if hint < hi:
                branches.append((hint + 1, hi))
            return branches
        if hi - lo <= 3:
            return [(v, v) for v in range(lo, hi + 1)]
        mid = (lo + hi) // 2
        return [(lo, mid), (mid + 1, hi)]

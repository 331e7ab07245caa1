"""Solver observability: propagation and search statistics.

Two structs thread through the CP-SAT substrate:

- :class:`PropagationStats` — propagation work (the solver keeps one
  cumulative instance per solve; the full-sweep test oracle fills one per
  fixpoint run).  ``fixpoint_reached`` exposes whether a sweep exhausted
  its pass budget without converging, so callers never mistake a
  truncated propagation for a fixpoint.
- :class:`SolverStats` — a whole solve call (nodes/sec, propagations by
  constraint kind, trail depth, time split between propagate / branch /
  bound).  Carried on
  :class:`~repro.opg.cpsat.model.Solution` and aggregated per window by
  ``opg.lcopg`` into the plan's provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PropagationStats:
    """Outcome of propagation runs (sweep or incremental)."""

    #: Bound updates applied (lo raised or hi lowered).
    tightenings: int = 0
    #: Linear-constraint evaluations.
    linear_props: int = 0
    #: Implication evaluations.
    implication_props: int = 0
    #: False only when a full sweep hit its pass budget while bounds were
    #: still moving; incremental propagation always converges.
    fixpoint_reached: bool = True


@dataclass
class SolverStats:
    """Observability for one ``CpSolver.solve`` call."""

    nodes: int = 0
    #: Total bound tightenings across all propagation runs.
    propagations: int = 0
    #: Constraint evaluations by kind.
    linear_props: int = 0
    implication_props: int = 0
    #: Deepest trail (undo-log) after a successful propagation — proxy for
    #: search depth x activity.
    trail_depth_peak: int = 0
    #: Wall-clock split of the solve loop.
    time_propagate_s: float = 0.0
    time_branch_s: float = 0.0
    time_bound_s: float = 0.0
    wall_time_s: float = 0.0
    #: Propagation runs that stopped before fixpoint (full sweeps only;
    #: always 0 for the trail solver, asserted by its tests).
    fixpoint_incomplete: int = 0

    @property
    def nodes_per_sec(self) -> float:
        return self.nodes / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def absorb(self, prop: PropagationStats) -> None:
        """Fold one propagation run into the solve-level counters."""
        self.propagations += prop.tightenings
        self.linear_props += prop.linear_props
        self.implication_props += prop.implication_props
        if not prop.fixpoint_reached:
            self.fixpoint_incomplete += 1

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (plan provenance, BENCH_solver.json)."""
        return {
            "nodes": self.nodes,
            "propagations": self.propagations,
            "linear_props": self.linear_props,
            "implication_props": self.implication_props,
            "trail_depth_peak": self.trail_depth_peak,
            "time_propagate_s": round(self.time_propagate_s, 6),
            "time_branch_s": round(self.time_branch_s, 6),
            "time_bound_s": round(self.time_bound_s, 6),
            "wall_time_s": round(self.wall_time_s, 6),
            "nodes_per_sec": round(self.nodes_per_sec, 1),
            "fixpoint_incomplete": self.fixpoint_incomplete,
        }

"""Design-choice ablations for the LC-OPG solver (DESIGN.md §4).

Quantifies the knobs the paper motivates qualitatively:

- **CP vs greedy-only** — the hybrid mode's quality gap: total loading
  distance (residency proxy) and preload ratio under each scheduler.
- **Chunk size S** — finer chunks pack capacity better but multiply solver
  variables; sweeps S and reports preload ratio + solve time.
- **Lookback horizon** — how far ahead of i_w transforms may run; longer
  horizons stream more but grow the CP model.
- **Rolling-window size** — the incremental-scheduling granularity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from repro.experiments.common import DEFAULT_DEVICE, cached_capacity, cached_graph
from repro.experiments.report import render_table
from repro.opg.lcopg import LcOpgSolver
from repro.opg.plan import OverlapPlan
from repro.opg.problem import OpgConfig

MODEL = "ViT"


def _distance(plan: OverlapPlan) -> int:
    return sum(s.loading_distance for s in plan.schedules.values())


@dataclass
class AblationRow:
    study: str
    setting: str
    preload_pct: float
    total_distance: int
    solve_s: float
    status: str


@dataclass
class AblationResult:
    rows: List[AblationRow] = field(default_factory=list)

    def study(self, name: str) -> List[AblationRow]:
        return [r for r in self.rows if r.study == name]

    def render(self) -> str:
        return render_table(
            ["Study", "Setting", "Preload %", "Total distance", "Solve (s)", "Status"],
            [
                (r.study, r.setting, r.preload_pct, r.total_distance, r.solve_s, r.status)
                for r in self.rows
            ],
            title=f"Solver design ablations ({MODEL})",
        )


def _solve(graph, capacity, config: OpgConfig, *, use_cp: bool = True):
    start = time.perf_counter()
    plan = LcOpgSolver(config, use_cp=use_cp).solve(graph, capacity)
    return plan, time.perf_counter() - start


def run(device: str = DEFAULT_DEVICE, *, model: str = MODEL) -> AblationResult:
    graph = cached_graph(model)
    capacity = cached_capacity(device)
    result = AblationResult()

    def add(study: str, setting: str, plan: OverlapPlan, elapsed: float) -> None:
        result.rows.append(
            AblationRow(
                study=study,
                setting=setting,
                preload_pct=plan.preload_ratio * 100,
                total_distance=_distance(plan),
                solve_s=elapsed,
                status=plan.stats.solver_status,
            )
        )

    # CP vs greedy-only (hybrid fallback forced on).
    for use_cp, label in ((True, "CP-SAT"), (False, "greedy-only")):
        plan, dt = _solve(graph, capacity, OpgConfig(), use_cp=use_cp)
        add("scheduler", label, plan, dt)

    # Chunk size sweep.
    for chunk_kb in (128, 512, 2048):
        plan, dt = _solve(graph, capacity, OpgConfig(chunk_bytes=chunk_kb * 1024))
        add("chunk_size", f"{chunk_kb} KiB", plan, dt)

    # Lookback horizon sweep.
    for lookback in (4, 16, 32):
        plan, dt = _solve(graph, capacity, OpgConfig(lookback=lookback))
        add("lookback", str(lookback), plan, dt)

    # Rolling-window size sweep.
    for window in (16, 48, 128):
        plan, dt = _solve(graph, capacity, OpgConfig(window_weights=window))
        add("window", str(window), plan, dt)

    return result

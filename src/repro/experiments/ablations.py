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


def run(device: str = DEFAULT_DEVICE, *, model: str = MODEL) -> AblationResult:
    graph = cached_graph(model)
    capacity = cached_capacity(device)
    result = AblationResult()
    # Several rows name the default config (CP-SAT, 512 KiB, lookback 16);
    # a plan is a pure function of its inputs, so each distinct
    # (config, use_cp) is solved once and its plan and time reused.
    solved = {}

    def add(study: str, setting: str, config: OpgConfig, use_cp: bool = True) -> None:
        key = (config, use_cp)
        if key not in solved:
            start = time.perf_counter()
            plan = LcOpgSolver(config, use_cp=use_cp).solve(graph, capacity)
            solved[key] = plan, time.perf_counter() - start
        plan, elapsed = solved[key]
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
        add("scheduler", label, OpgConfig(), use_cp)

    # Chunk size sweep.
    for chunk_kb in (128, 512, 2048):
        add("chunk_size", f"{chunk_kb} KiB", OpgConfig(chunk_bytes=chunk_kb * 1024))

    # Lookback horizon sweep.
    for lookback in (4, 16, 32):
        add("lookback", str(lookback), OpgConfig(lookback=lookback))

    # Rolling-window size sweep.
    for window in (16, 48, 128):
        add("window", str(window), OpgConfig(window_weights=window))

    return result

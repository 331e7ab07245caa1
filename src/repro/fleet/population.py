"""Population fan-out: a device × runtime grid replayed over a process pool.

One fleet run shards the grid's cells over a pool from
:func:`repro.sweep.runner.start_pool` (spawn, imports and the store paid
before the timed work).  Every worker reads and writes the one shared
store, so an episode simulated in any cell or run is a cache hit for every
later one.

The headline metric is **simulated device-hours per wall-clock second**:
how much device-population time one machine can evaluate per second.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.store import ArtifactStore, active_store, swap_store
from repro.fleet.episode import EpisodeProvider
from repro.fleet.replay import DEFAULT_SLO_MULTIPLIER, CellResult, replay_trace
from repro.fleet.trace import Trace

#: Grid defaults: primary + most constrained device, FlashMem vs a
#: representative preloader.
DEFAULT_DEVICES = ("OnePlus 12", "Pixel 8")
DEFAULT_RUNTIMES = ("FlashMem", "MNN")


@dataclass
class FleetReport:
    """Merged outcome of one population run."""

    trace_name: str
    trace_summary: str
    cells: List[CellResult] = field(default_factory=list)
    jobs: int = 1
    wall_s: float = 0.0
    cache_dir: Optional[str] = None

    @property
    def simulated_device_hours(self) -> float:
        return sum(cell.device_hours for cell in self.cells)

    @property
    def device_hours_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.simulated_device_hours / self.wall_s

    @property
    def episodes_simulated(self) -> int:
        return sum(cell.episodes_simulated for cell in self.cells)

    @property
    def invocations(self) -> int:
        return sum(cell.invocations for cell in self.cells)

    def render(self) -> str:
        """Text table for ``results/fleet.txt``."""
        lines = [
            "Fleet trace replay: device-population simulation",
            f"trace: {self.trace_summary}",
            (
                f"grid: {len(self.cells)} cells, jobs={self.jobs}, "
                f"wall {self.wall_s:.2f}s"
            ),
            (
                f"throughput: {self.simulated_device_hours:.2f} simulated "
                f"device-hours in {self.wall_s:.2f}s wall = "
                f"{self.device_hours_per_s:.1f} device-hours/s"
            ),
            (
                f"episodes simulated: {self.episodes_simulated} "
                f"(for {self.invocations} invocations)"
            ),
            "",
            (
                f"{'device':<12} {'runtime':<9} {'SLO%':>6} {'p50 ms':>9} "
                f"{'p99 ms':>9} {'peak MB':>8} {'avg MB':>7} {'energy J':>9}"
            ),
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.device:<12} {cell.runtime:<9} "
                f"{100.0 * cell.slo_attainment:>5.1f}% "
                f"{cell.p50_ms:>9.1f} {cell.p99_ms:>9.1f} "
                f"{cell.peak_bytes / 1e6:>8.0f} {cell.avg_bytes / 1e6:>7.0f} "
                f"{cell.energy_j:>9.1f}"
            )
        return "\n".join(lines)


def _replay_cell(
    trace_json: Dict[str, Any],
    device: str,
    runtime: str,
    slo_multiplier: float,
    memoize: bool,
) -> CellResult:
    """One grid cell, runnable in a pool worker or inline."""
    trace = Trace.from_json(trace_json)
    provider = EpisodeProvider(memoize=memoize)
    return replay_trace(
        trace, device, runtime, provider=provider, slo_multiplier=slo_multiplier
    )


def run_fleet(
    trace: Trace,
    devices: Sequence[str] = DEFAULT_DEVICES,
    runtimes: Sequence[str] = DEFAULT_RUNTIMES,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    slo_multiplier: float = DEFAULT_SLO_MULTIPLIER,
    memoize: bool = True,
) -> FleetReport:
    """Replay ``trace`` over the device × runtime grid.

    Episodes persist to the store at ``cache_dir``, or, when it is None,
    to the process's active store.  ``jobs > 1`` shards cells over a
    pre-warmed pool whose workers share that store; pool start happens
    before the timed window, so ``wall_s`` measures replay work.  Cell
    order in the report is deterministic (device-major) regardless of
    completion order.  ``memoize=False`` runs the naive per-invocation
    engine in every cell (the benchmark baseline).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    grid: List[Tuple[str, str]] = [(d, r) for d in devices for r in runtimes]
    report = FleetReport(
        trace_name=trace.name,
        trace_summary=trace.describe(),
        jobs=jobs,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
    )
    store = ArtifactStore(cache_dir) if cache_dir is not None else active_store()
    if jobs == 1 or len(grid) <= 1:
        previous = swap_store(store)
        try:
            provider = EpisodeProvider(memoize=memoize)
            start = time.perf_counter()
            for device, runtime in grid:
                report.cells.append(
                    replay_trace(
                        trace,
                        device,
                        runtime,
                        provider=provider,
                        slo_multiplier=slo_multiplier,
                    )
                )
            report.wall_s = time.perf_counter() - start
        finally:
            swap_store(previous)
        report.jobs = 1
        return report

    from repro.sweep.runner import start_pool

    workers = min(jobs, len(grid))
    trace_json = trace.to_json()
    pool = start_pool(workers, store.root if store is not None else None)
    try:
        start = time.perf_counter()
        futures = [
            pool.submit(
                _replay_cell, trace_json, device, runtime, slo_multiplier, memoize
            )
            for device, runtime in grid
        ]
        report.cells = [future.result() for future in futures]
        report.wall_s = time.perf_counter() - start
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    report.jobs = workers
    return report

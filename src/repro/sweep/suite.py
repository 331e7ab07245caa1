"""Suite orchestration behind ``python -m repro experiment all``.

Two phases, both riding the same persistent artifact store:

1. **warm** — the deduplicated primitive (model, device, runtime) cells the
   requested drivers share are fanned out across the pool, populating the
   store (skipped when running serially, where warming would just reorder
   the work).  A pooled run without a persistent store gets a temporary one
   for its own lifetime, so its workers still share the warm cells.
2. **render** — the drivers themselves run (also fanned out when
   ``jobs > 1``), loading the warm primitives, and their rendered text is
   written under ``results/`` in deterministic driver order.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.sweep.cells import driver_cells, primitive_cells
from repro.sweep.runner import SweepReport, SweepRunner, format_cache_line, format_sim_line

#: Default persistent cache location (CLI: overridable via --cache-dir or
#: the REPRO_CACHE_DIR environment variable; --no-cache keeps nothing).
DEFAULT_CACHE_DIR = ".artifact-cache"

ProgressFn = Callable[[str], None]


@dataclass
class SuiteReport:
    """Outcome of one suite invocation."""

    names: List[str]
    drivers: SweepReport
    primitives: Optional[SweepReport]
    written: List[Path]
    wall_s: float

    @property
    def ok(self) -> bool:
        return not self.drivers.failures

    def text_for(self, name: str) -> Optional[str]:
        for outcome in self.drivers.outcomes:
            if outcome.cell.name == name:
                return outcome.text
        return None

    def store_totals(self) -> Dict[str, int]:
        totals = self.drivers.store_totals()
        if self.primitives is not None:
            for k, v in self.primitives.store_totals().items():
                totals[k] = totals.get(k, 0) + v
        return totals

    def sim_totals(self) -> Dict[str, float]:
        totals = self.drivers.sim_totals()
        if self.primitives is not None:
            for k, v in self.primitives.sim_totals().items():
                totals[k] = totals.get(k, 0.0) + v
        return totals

    def summary(self) -> str:
        """Per-driver status lines plus the sweep sim/cache-stats lines."""
        by_name = {o.cell.name: o for o in self.drivers.outcomes}
        lines = []
        for name in self.names:
            o = by_name[name]
            status = "ok  " if o.ok else "FAIL"
            hit = " [cached]" if o.cache_hit else ""
            lines.append(f"  {status} {name:20s} {o.wall_s:7.2f}s{hit}"
                         + (f"  {o.error}" if o.error else ""))
        if self.primitives is not None:
            prim = self.primitives
            lines.append(
                f"warm phase: {len(prim.outcomes)} primitive cells, "
                f"{prim.cache_hits} cached, {len(prim.failures)} failed, "
                f"{prim.wall_s:.1f}s wall"
            )
        lines.append(
            f"suite: {len(self.names)} drivers, {len(self.drivers.failures)} failed, "
            f"{self.wall_s:.1f}s wall, {self.drivers.jobs} job(s)"
        )
        sim = self.sim_totals()
        sim_line = format_sim_line(sim, self.wall_s, "suite wall")
        if sim_line:
            lines.append(sim_line)
        lines.append(format_cache_line(self.drivers.cache_dir, self.store_totals(), sim))
        return "\n".join(lines)


def run_suite(
    names: Sequence[str],
    *,
    jobs: int = 1,
    cache_dir: Union[str, Path, None] = None,
    results_dir: Union[str, Path, None] = None,
    progress: Optional[ProgressFn] = None,
) -> SuiteReport:
    """Run experiment drivers ``names``, optionally parallel and cache-warm.

    A failing driver (or primitive cell) is reported in the returned
    :class:`SuiteReport` and the suite continues.  When ``results_dir`` is
    given, each successful driver's rendered text is written there as
    ``<name>.txt`` (same format as the benchmarks), in driver order.
    ``cache_dir=None`` persists nothing: a pooled run stores into a
    temporary directory that is removed before this returns.
    """
    say = progress or (lambda _line: None)
    start = time.perf_counter()

    prim_report: Optional[SweepReport] = None
    with contextlib.ExitStack() as scope:
        if cache_dir is None and jobs > 1:
            cache_dir = scope.enter_context(tempfile.TemporaryDirectory(prefix="repro-no-cache-"))
        cells = primitive_cells(names) if jobs > 1 else []
        if cells:
            say(f"warming {len(cells)} primitive cells across {jobs} jobs ...")
            with SweepRunner(jobs=jobs, cache_dir=cache_dir) as runner:
                prim_report = runner.run(
                    cells,
                    progress=lambda o, done, total: say(
                        f"  [{done}/{total}] {o.cell.label()} {o.wall_s:.2f}s"
                        + (" [cached]" if o.cache_hit else "")
                        + ("" if o.ok else f" FAILED: {o.error}")
                    ),
                )

        say(f"running {len(names)} drivers ...")
        with SweepRunner(jobs=jobs, cache_dir=cache_dir) as runner:
            driver_report = runner.run(
                driver_cells(names),
                progress=lambda o, done, total: say(
                    f"  [{done}/{total}] {o.cell.name} {o.wall_s:.2f}s"
                    + (" [cached]" if o.cache_hit else "")
                    + ("" if o.ok else f" FAILED: {o.error}")
                ),
            )

    written: List[Path] = []
    if results_dir is not None:
        out_dir = Path(results_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        by_name = {o.cell.name: o for o in driver_report.outcomes}
        for name in names:
            outcome = by_name[name]
            if outcome.ok and outcome.text is not None:
                path = out_dir / f"{name}.txt"
                path.write_text(outcome.text + "\n")
                written.append(path)

    return SuiteReport(
        names=list(names),
        drivers=driver_report,
        primitives=prim_report,
        written=written,
        wall_s=time.perf_counter() - start,
    )

"""Process-pool sweep runner with deterministic merging, and the one pool start.

Cells are executed across ``jobs`` worker processes (inline when
``jobs=1``).  The runner records per-cell wall time and store-counter
deltas, captures failures without aborting the sweep, and merges outcomes
in sorted cell order so the report is independent of completion order.

:func:`start_pool` is how every process fan-out in the package starts its
workers — the sweep, the compile service's
:class:`~repro.service.pool.CompilePool` and the fleet's
:func:`~repro.fleet.population.run_fleet`.  Each worker runs
:func:`worker_init` once (recursion headroom, heavy imports, and the one
shared :class:`~repro.core.store.ArtifactStore` it reads and writes), and a
barrier forces every worker up before the pool is handed out, so spawn and
import cost never lands on timed or served work.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.store import ArtifactStore, active_store, read_through, swap_store
from repro.sweep.cells import Cell

PathLike = Union[str, Path]

#: Compiled-model graphs are node chains thousands of frames deep; a pool
#: pickles them outside any ``_deep_recursion`` scope (result marshalling
#: happens in executor machinery), so both sides raise the limit up front.
RECURSION_LIMIT = 20_000


@dataclass
class CellOutcome:
    """What happened to one cell: timing, cache traffic, failure, output."""

    cell: Cell
    ok: bool
    wall_s: float
    cache_hit: bool = False
    store_delta: Dict[str, int] = field(default_factory=dict)
    #: Simulation hot-path counters accrued by this cell (runs, sim_s,
    #: pricing table hits/misses, replayed iterations) — see
    #: :data:`repro.gpusim.pricing.STATS`.
    sim_delta: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    #: Rendered table/figure text for ``driver`` cells.
    text: Optional[str] = None


def _driver_render_key(name: str) -> Dict[str, str]:
    from repro.experiments.common import experiment_config_fingerprint

    return {"kind": "driver-render", "name": name,
            "config": experiment_config_fingerprint()}


def _run_driver(name: str) -> tuple:
    """Render one driver through the active store; returns (text, cache_hit).

    Driver renders are cached whole — including wall-clock-derived fields
    like Table 4 solve times — which is what makes a warm ``experiment all``
    rerun byte-for-byte identical to the cold run that populated the store.
    """
    rendered = False

    def render() -> Dict[str, str]:
        nonlocal rendered
        rendered = True
        module = importlib.import_module(f"repro.experiments.{name}")
        return {"text": module.run().render()}

    return read_through(_driver_render_key(name), render)["text"], not rendered


def _execute_cell(cell: Cell) -> CellOutcome:
    """Run one cell in the current process (worker or inline)."""
    from repro.experiments import common
    from repro.gpusim import pricing

    store = active_store()
    before = store.stats.snapshot() if store is not None else {}
    sim_before = pricing.STATS.snapshot()
    start = time.perf_counter()
    text: Optional[str] = None
    cache_hit = False
    try:
        if cell.kind == "flashmem":
            cache_hit = bool(store and store.contains(
                common.flashmem_run_key(cell.name, cell.device, common.PREFILL_ONCE)))
            common.flashmem_result(cell.name, cell.device)
        elif cell.kind == "framework":
            cache_hit = bool(store and store.contains(
                common.framework_run_key(cell.runtime, cell.name, cell.device,
                                         common.PREFILL_ONCE)))
            common.framework_result(cell.runtime, cell.name, cell.device)
        elif cell.kind == "driver":
            text, cache_hit = _run_driver(cell.name)
        else:
            raise ValueError(f"unknown cell kind {cell.kind!r}")
        ok, error = True, ""
    except Exception as exc:  # noqa: BLE001 — a failed cell must not kill the sweep
        ok, error = False, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    delta = store.stats.delta_since(before) if store is not None else {}
    sim_delta = pricing.STATS.delta_since(sim_before)
    return CellOutcome(cell=cell, ok=ok, wall_s=wall, cache_hit=cache_hit,
                       store_delta=delta, sim_delta=sim_delta, error=error, text=text)


def raise_recursion_limit(limit: int = RECURSION_LIMIT) -> None:
    """Idempotently grow the interpreter recursion limit to ``limit``."""
    if sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)


def worker_init(cache_dir: Optional[str]) -> None:
    """Pool-worker set-up: recursion headroom, the heavy imports up front
    (so a worker's first task does task work only), and the shared store."""
    raise_recursion_limit()
    from repro.experiments import common  # noqa: F401 — import cost is the point
    from repro.gpusim import pricing  # noqa: F401

    swap_store(ArtifactStore(cache_dir) if cache_dir is not None else None)


def _worker_warmup(delay_s: float) -> int:
    """Pre-warm barrier task: holding each worker busy for ``delay_s``
    forces the pool to actually spawn (and init) every worker."""
    time.sleep(delay_s)
    return os.getpid()


def start_pool(workers: int, cache_dir: Optional[PathLike], *,
               barrier_s: float = 0.05) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, all spawned and initialized.

    Every worker reads and writes the one :class:`ArtifactStore` at
    ``cache_dir`` (None: no store).  One barrier task per worker holds its
    process for ``barrier_s``, so the pool cannot serve two of them from
    the same process and must start them all before this returns.
    """
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=worker_init,
        initargs=(str(cache_dir) if cache_dir is not None else None,),
    )
    try:
        for future in [pool.submit(_worker_warmup, barrier_s) for _ in range(workers)]:
            future.result()
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    return pool


def format_cache_line(cache_dir: Optional[str], store: Mapping[str, int],
                      sim: Mapping[str, float]) -> str:
    """One-line summary of store traffic and pricing LRU traffic."""
    pricing_part = ""
    if sim.get("table_hits", 0) or sim.get("table_misses", 0):
        pricing_part = (f"; pricing tables: {int(sim.get('table_hits', 0))} hits, "
                        f"{int(sim.get('table_misses', 0))} misses")
    if cache_dir is None:
        return "cache: disabled (--no-cache)" + pricing_part
    return (f"cache: {store['hits']} hits, {store['misses']} misses, {store['stores']} stored"
            + (f", {store['corrupt']} quarantined" if store["corrupt"] else "")
            + f" (dir {cache_dir})" + pricing_part)


def format_sim_line(sim: Mapping[str, float], wall_s: float, wall_label: str) -> Optional[str]:
    """Simulated time vs ``wall_s``, or None when no cell simulated.

    ``sim_s`` is the wall time spent inside executor runs; the rest of
    ``wall_s`` is compile/solve/render/cache traffic.
    """
    runs = int(sim.get("runs", 0))
    if not runs:
        return None
    line = (f"simulation: {runs} run(s), {sim.get('sim_s', 0.0):.2f}s simulated "
            f"vs {wall_s:.1f}s {wall_label}")
    replayed = int(sim.get("replayed_iterations", 0))
    if replayed:
        line += f", {replayed} iteration(s) extrapolated"
    return line


@dataclass
class SweepReport:
    """Deterministically merged outcomes of one sweep."""

    outcomes: List[CellOutcome]
    jobs: int
    cache_dir: Optional[str]
    wall_s: float

    @property
    def failures(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    def store_totals(self) -> Dict[str, int]:
        totals = {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}
        for outcome in self.outcomes:
            for k in totals:
                totals[k] += outcome.store_delta.get(k, 0)
        return totals

    def sim_totals(self) -> Dict[str, float]:
        """Aggregate simulation hot-path counters across all cells.

        Keys follow :class:`repro.gpusim.pricing.SimStats` (runs, sim_s,
        table hits/misses, replayed iterations).  With a process pool each
        worker's deltas are summed, so totals cover the whole sweep.
        """
        totals: Dict[str, float] = {}
        for outcome in self.outcomes:
            for k, v in outcome.sim_delta.items():
                totals[k] = totals.get(k, 0.0) + v
        return totals

    def cache_line(self) -> str:
        """One-line cache-traffic summary for the CLI output."""
        return format_cache_line(self.cache_dir, self.store_totals(), self.sim_totals())

    def render(self) -> str:
        lines = [f"sweep: {len(self.outcomes)} cells, {self.jobs} job(s), "
                 f"{self.wall_s:.1f}s wall, {len(self.failures)} failed"]
        for o in self.outcomes:
            status = "ok " if o.ok else "FAIL"
            hit = " [cached]" if o.cache_hit else ""
            lines.append(f"  {status} {o.cell.label():40s} {o.wall_s:7.2f}s{hit}"
                         + (f"  {o.error}" if o.error else ""))
        sim_line = format_sim_line(self.sim_totals(), self.wall_s, "total sweep wall")
        if sim_line:
            lines.append(sim_line)
        lines.append(self.cache_line())
        return "\n".join(lines)


class SweepRunner:
    """Fan cells out over a process pool sharing one persistent store.

    ``prewarm()`` spins the pool up (process spawn + module imports +
    store configuration) ahead of ``run()``, so measured sweep wall time
    covers cell work only — worker startup used to eat the whole
    parallelism win on short sweeps.  A pre-warmed pool is reused across
    ``run()`` calls.  The runner is a context manager — use ``with`` so
    ``close()`` runs even when a timed ``run()`` raises (a bare
    prewarm/run/close sequence leaks the pool on the exception path)::

        with SweepRunner(jobs=4, cache_dir=cache) as runner:
            runner.prewarm()
            report = runner.run(cells)
    """

    def __init__(self, *, jobs: int = 1, cache_dir: Optional[PathLike] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def prewarm(self, *, barrier_s: float = 0.05) -> None:
        """Start every worker now; blocks until all are spawned and inited."""
        if self.jobs <= 1 or self._pool is not None:
            return
        self._pool = start_pool(self.jobs, self.cache_dir, barrier_s=barrier_s)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def run(
        self,
        cells: Sequence[Cell],
        *,
        progress: Optional[Callable[[CellOutcome, int, int], None]] = None,
    ) -> SweepReport:
        """Execute ``cells``; a raising cell is reported, never fatal.

        ``progress`` is invoked as cells complete (completion order); the
        report itself is merged in sorted cell order.
        """
        start = time.perf_counter()
        outcomes: List[CellOutcome] = []
        done = 0
        if self.jobs == 1 or len(cells) <= 1:
            store = ArtifactStore(self.cache_dir) if self.cache_dir is not None else None
            previous = swap_store(store)
            try:
                for cell in cells:
                    outcome = _execute_cell(cell)
                    outcomes.append(outcome)
                    done += 1
                    if progress:
                        progress(outcome, done, len(cells))
            finally:
                swap_store(previous)
        else:
            pool = self._pool or start_pool(min(self.jobs, len(cells)), self.cache_dir)
            try:
                pending = {pool.submit(_execute_cell, cell): cell for cell in cells}
                while pending:
                    finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in finished:
                        cell = pending.pop(future)
                        exc = future.exception()
                        if exc is not None:  # worker died (not a cell error)
                            outcome = CellOutcome(
                                cell=cell, ok=False, wall_s=0.0,
                                error=f"worker failure: {type(exc).__name__}: {exc}",
                            )
                        else:
                            outcome = future.result()
                        outcomes.append(outcome)
                        done += 1
                        if progress:
                            progress(outcome, done, len(cells))
            finally:
                if pool is not self._pool:
                    pool.shutdown()
        outcomes.sort(key=lambda o: o.cell)
        return SweepReport(
            outcomes=outcomes,
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            wall_s=time.perf_counter() - start,
        )

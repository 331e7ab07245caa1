"""Simulation result containers: memory timeline and latency phases.

Every executor produces a :class:`RunResult`; the experiment drivers read
peak/average memory, phase latencies, and energy from it.  Its memory
timeline is two numpy columns (times, totals); multi-model runs (Figure 6)
merge per-session delta columns into a shared timeline in one numpy pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class MemoryTimeline:
    """Step function of total memory in use over simulated time.

    Two read-only columns, origin row ``(0.0, 0)`` first: ``times``
    (float64, non-decreasing) and ``totals`` (int64 bytes in use from that
    instant on; at a repeated time the last row holds).  Producers build
    the columns whole — :meth:`Simulation.build_timeline
    <repro.gpusim.engine.Simulation.build_timeline>` from its sorted delta
    log, :func:`merge_session_columns` from per-session deltas — and every
    query is a numpy pass that returns a Python ``int`` or ``float``.
    """

    def __init__(self, times: Optional[np.ndarray] = None, totals: Optional[np.ndarray] = None) -> None:
        if times is None:
            times, totals = np.zeros(1), np.zeros(1, dtype=np.int64)
        self.times = np.asarray(times, dtype=np.float64)
        self.totals = np.asarray(totals, dtype=np.int64)
        if self.times.shape != self.totals.shape:
            raise ValueError("times and totals must be columns of one length")
        self.times.flags.writeable = False
        self.totals.flags.writeable = False

    @property
    def peak_bytes(self) -> int:
        return int(self.totals.max())

    def usage_at(self, time_ms: float) -> int:
        """Bytes in use at ``time_ms`` (the last row at or before it)."""
        i = int(np.searchsorted(self.times, time_ms, side="right"))
        return int(self.totals[i - 1]) if i else 0

    def average_bytes(self, start_ms: float = 0.0, end_ms: Optional[float] = None) -> float:
        """Time-weighted average over [start, end] (end defaults to the last row).

        The integral is the left fold ``total += v * (t_next - t)`` over the
        steps inside the window, in time order: ``np.add.accumulate`` is
        that sequential recurrence (``np.sum`` would pair terms up and round
        differently).  The result is clamped to the value range attained
        over the window: a true time-weighted mean lies between the minimum
        and maximum of the step function, but the float integral can drift
        an ulp past those bounds (e.g. a constant timeline averaging a hair
        above its peak).
        """
        times, totals = self.times, self.totals
        if end_ms is None:
            end_ms = float(times[-1])
        if end_ms <= start_ms:
            return float(self.usage_at(start_ms))
        lo = int(np.searchsorted(times, start_ms, side="right"))
        hi = int(np.searchsorted(times, end_ms, side="left"))
        # The steps in force over the window and their edges.
        values = np.concatenate(([totals[lo - 1] if lo else 0], totals[lo:hi]))
        edges = np.concatenate(([start_ms], times[lo:hi], [end_ms]))
        terms = np.concatenate(([0.0], values * np.diff(edges)))
        average = float(np.add.accumulate(terms)[-1]) / (end_ms - start_ms)
        vmax = int(values.max())
        if average > vmax:
            return float(vmax)
        vmin = int(values.min())
        if average < vmin:
            return float(vmin)
        return average

    def series(self, resolution_ms: float = 50.0, end_ms: Optional[float] = None) -> List[Tuple[float, int]]:
        """Resampled (time, bytes) series for plotting (Figure 6)."""
        if resolution_ms <= 0:
            raise ValueError("resolution must be positive")
        if end_ms is None:
            end_ms = float(self.times[-1])
        grid: List[float] = []
        t = 0.0
        while t <= end_ms:
            grid.append(t)
            t += resolution_ms
        rows = np.searchsorted(self.times, grid, side="right")
        values = np.where(rows > 0, self.totals[rows - 1], 0)
        return list(zip(grid, values.tolist()))


# ------------------------------------------------------- columnar merging
def session_deltas(timeline: MemoryTimeline) -> Tuple[np.ndarray, np.ndarray]:
    """A timeline's columns as (times, deltas).

    The first row's delta is its absolute value, so ``np.cumsum(deltas)``
    reproduces ``totals`` exactly (int64 byte counts — the round trip is
    bit-exact).  This is the recording format multi-session merges consume:
    a session's contribution to a shared timeline is its delta train,
    offset to its start time.
    """
    return timeline.times, np.diff(timeline.totals, prepend=np.int64(0))


def merge_session_columns(
    sessions: Sequence[Tuple[float, np.ndarray, np.ndarray, float]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-session delta columns into one summed step function.

    ``sessions`` holds ``(offset_ms, times, deltas, end_ms)`` per session —
    ``times``/``deltas`` as produced by :func:`session_deltas`, ``offset_ms``
    the session's position on the shared clock, and ``end_ms`` the instant
    the session tears down.  Each session contributes its own step function
    between ``offset_ms`` and ``end_ms`` and *zero* outside that window: a
    teardown delta returning the session's running total to zero is emitted
    at ``end_ms``, so the merged floor drops only when a session actually
    ends — under concurrent sessions the remaining residents keep their
    bytes counted (the conditional form of the old absolute ``record(end,
    0)`` floor drop, which zeroed co-resident apps).

    The merge is one numpy pass: concatenate all columns, stable-sort by
    time (``np.lexsort``), cumulative-sum the deltas.  Stability extends the
    simulator's same-instant tie rule (engine ``build_timeline``) across
    session boundaries: within a session the original — already
    tie-resolved — sample order is preserved, and at a shared instant an
    earlier session's teardown free integrates before a later session's
    first allocation, so a back-to-back handoff is an exchange, not a
    transient double-residency.  Sessions must be supplied in start order.

    Returns ``(times, totals)`` columns; totals are exact int64 sums, and
    for non-overlapping sessions the columns are row-for-row what the seed
    per-sample merge loop produced (appending each session's rows at its
    offset, then its teardown row).  Its caller is
    :class:`~repro.runtime.multimodel.FifoPipeline`, whose timed arrivals
    can overlap; the fleet replay, whose sessions never overlap, streams
    them end to end instead and is tested against this merge.
    """
    times_parts: List[np.ndarray] = [np.zeros(1, dtype=np.float64)]
    delta_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    for offset_ms, times, deltas, end_ms in sessions:
        times = np.asarray(times, dtype=np.float64)
        deltas = np.asarray(deltas, dtype=np.int64)
        times_parts.append(times + offset_ms)
        delta_parts.append(deltas)
        # Teardown: the session's contribution returns to zero at its end.
        times_parts.append(np.array([end_ms], dtype=np.float64))
        delta_parts.append(np.array([-int(deltas.sum())], dtype=np.int64))
    all_times = np.concatenate(times_parts)
    all_deltas = np.concatenate(delta_parts)
    order = np.lexsort((all_times,))  # stable: ties keep session order
    merged_times = all_times[order]
    totals = np.cumsum(all_deltas[order])
    if len(totals) and totals.min() < 0:
        raise ValueError("memory cannot be negative")
    return merged_times, totals


def merge_sessions(
    sessions: Sequence[Tuple[float, np.ndarray, np.ndarray, float]],
) -> MemoryTimeline:
    """:func:`merge_session_columns` as a :class:`MemoryTimeline`."""
    return MemoryTimeline(*merge_session_columns(sessions))


@dataclass
class Phases:
    """Latency breakdown of one model run, in ms.

    ``load``      — disk -> unified memory time on the IO queue.
    ``transform`` — dedicated layout-transformation kernels (preloading path).
    ``execute``   — inference kernels (including embedded loads for FlashMem).
    ``setup``     — one-off GPU context/program setup.
    """

    setup: float = 0.0
    load: float = 0.0
    transform: float = 0.0
    execute: float = 0.0

    @property
    def init(self) -> float:
        """Initialization latency as the paper reports it (cold start)."""
        return self.setup + self.load + self.transform

    @property
    def total(self) -> float:
        return self.init + self.execute


@dataclass
class RunResult:
    """Outcome of simulating one model on one runtime."""

    model: str
    runtime: str
    device: str
    #: End-to-end wall-clock latency in ms (init + exec for preloaders;
    #: integrated for FlashMem).
    latency_ms: float
    phases: Phases
    memory: MemoryTimeline
    #: Peak bytes as accounted by the executor (UM + TM).
    peak_memory_bytes: int
    #: Time-weighted average bytes over the whole run.
    avg_memory_bytes: float
    energy_j: float = 0.0
    avg_power_w: float = 0.0
    #: Free-form executor details (preload ratio, plan stats, ...).
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / 1e6

    @property
    def avg_memory_mb(self) -> float:
        return self.avg_memory_bytes / 1e6

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.model}/{self.runtime}@{self.device}: "
            f"{self.latency_ms:.0f} ms, avg {self.avg_memory_mb:.0f} MB, "
            f"peak {self.peak_memory_mb:.0f} MB, {self.energy_j:.1f} J"
        )


def geo_mean(values: Sequence[float]) -> float:
    """Geometric mean (used for the paper's speedup/reduction summaries)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))

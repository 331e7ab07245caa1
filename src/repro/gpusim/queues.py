"""Command queues and the two-resource overlap model.

Mobile GPUs expose independent command queues so transfers and compute can
proceed concurrently (paper §2.1).  The simulator models two serially-ordered
resources — the IO path (disk -> unified memory) and the GPU path (kernels,
including their embedded texture loads) — each as a :class:`CommandQueue`
with a busy-until clock and an event log.  Executors submit work items with
earliest-start constraints; the queue returns the completion time.

**Columnar storage.**  Events are held as parallel columns (label, start,
end, kind) with running busy-time accumulators updated at submit time, so
``busy_time_ms``/``idle_time_ms`` never re-walk the log.  Starts and ends
are ``array('d')`` columns — 8 bytes a row, no float objects — that the
energy model's interval merge reads through numpy views.
:class:`QueueEvent` rows are materialized lazily (and cached) for callers
that want the object view.

**Invariant.**  Because queues are in-order (an item starts at
``max(free_at, not_before)`` and ``free_at`` only moves forward), the event
columns are always start-sorted and pairwise disjoint: each start is >= the
previous end.  :meth:`CommandQueue.busy_intervals` exploits this to merge
busy spans with one running maximum and no sort — adjacent events coalesce
exactly when one starts the instant the previous ends.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class QueueEvent:
    """One completed work item on a queue."""

    label: str
    start_ms: float
    end_ms: float
    kind: str = "work"

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class CommandQueue:
    """A serially-ordered execution resource with a columnar event log."""

    __slots__ = ("name", "_free_at", "_labels", "_starts", "_ends", "_kinds",
                 "_busy_total", "_busy_by_kind", "_events_cache")

    def __init__(self, name: str) -> None:
        self.name = name
        self._free_at = 0.0
        self._labels: List[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._kinds: List[str] = []
        # Running totals, accumulated in submit order so they are bitwise
        # identical to summing event durations left-to-right.
        self._busy_total = 0.0
        self._busy_by_kind: Dict[str, float] = {}
        self._events_cache: Optional[List[QueueEvent]] = None

    @property
    def free_at(self) -> float:
        """Earliest time new work could start."""
        return self._free_at

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def events(self) -> List[QueueEvent]:
        """The event log as (cached) :class:`QueueEvent` rows.

        Materialized on demand from the columns; treat as read-only.
        """
        cache = self._events_cache
        if cache is None or len(cache) != len(self._starts):
            cache = [
                QueueEvent(label=label, start_ms=start, end_ms=end, kind=kind)
                for label, start, end, kind in zip(
                    self._labels, self._starts, self._ends, self._kinds
                )
            ]
            self._events_cache = cache
        return cache

    def submit(self, label: str, duration_ms: float, *, not_before: float = 0.0, kind: str = "work") -> QueueEvent:
        """Enqueue a work item; returns its event (with start/end times).

        The item starts at ``max(queue free time, not_before)`` — queues are
        in-order, like real command queues without out-of-order execution.
        """
        start, end = self.submit_fast(label, duration_ms, not_before, kind)
        return QueueEvent(label=label, start_ms=start, end_ms=end, kind=kind)

    def submit_fast(self, label: str, duration_ms: float, not_before: float = 0.0,
                    kind: str = "work") -> Tuple[float, float]:
        """Hot-path submit: identical semantics, returns ``(start, end)``.

        Skips the :class:`QueueEvent` construction — executor inner loops
        only need the two floats.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        start = max(self._free_at, not_before)
        end = start + duration_ms
        self._free_at = end
        self._labels.append(label)
        self._starts.append(start)
        self._ends.append(end)
        self._kinds.append(kind)
        busy = end - start
        self._busy_total += busy
        self._busy_by_kind[kind] = self._busy_by_kind.get(kind, 0.0) + busy
        return start, end

    def advance_to(self, time_ms: float) -> None:
        """Force the queue idle until ``time_ms`` (barriers, model swaps)."""
        self._free_at = max(self._free_at, time_ms)

    def busy_time_ms(self, *, kind: Optional[str] = None) -> float:
        """Total busy time, optionally restricted to one event kind."""
        if kind is None:
            return self._busy_total
        return self._busy_by_kind.get(kind, 0.0)

    def idle_time_ms(self) -> float:
        """Gaps between events up to the queue's current horizon.

        Clamped at 0.0: ``advance_to`` can push ``free_at`` ahead of the
        submitted work (barriers), and accumulator rounding must never let
        the difference drift negative.
        """
        return max(0.0, self._free_at - self._busy_total)

    # ---------------------------------------------------------- replay API
    def replay_columns(self) -> Tuple[List[str], array, array, List[str]]:
        """The raw mutable columns ``(labels, starts, ends, kinds)``.

        For trusted bulk-append paths (the segment core's replay and weight
        staging in ``repro.runtime``): the caller must append rows that keep
        the class invariant (start-sorted, start >= previous end) and finish
        with :meth:`sync_clock`.
        """
        return self._labels, self._starts, self._ends, self._kinds

    def clock_state(self) -> Tuple[float, float, Dict[str, float]]:
        """Snapshot ``(free_at, busy_total, busy_by_kind)`` for a replay."""
        return self._free_at, self._busy_total, dict(self._busy_by_kind)

    def sync_clock(self, free_at: float, busy_total: float, busy_by_kind: Dict[str, float]) -> None:
        """Restore accumulator state after a bulk replay (see replay_columns)."""
        self._free_at = free_at
        self._busy_total = busy_total
        self._busy_by_kind = dict(busy_by_kind)

    def busy_intervals(self) -> List[Tuple[float, float]]:
        """Disjoint busy (start, end) intervals, merged without sorting.

        Relies on the class invariant (columns start-sorted), so an event
        joins the current span exactly when it starts at or before the
        running maximum of the ends before it; zero-duration events are
        skipped like the energy model always did.  The numpy views of the
        columns die with the call: an ``array`` with a live buffer export
        cannot grow.
        """
        if not self._starts:
            return []
        starts = np.frombuffer(self._starts)
        ends = np.frombuffer(self._ends)
        busy = ends > starts
        starts, ends = starts[busy], ends[busy]
        if not len(starts):
            return []
        reach = np.maximum.accumulate(ends)
        first = np.flatnonzero(np.concatenate(([True], starts[1:] > reach[:-1])))
        last = np.append(first[1:] - 1, len(starts) - 1)
        return list(zip(starts[first].tolist(), reach[last].tolist()))


@dataclass
class DualQueue:
    """The IO + GPU queue pair every executor runs on."""

    io: CommandQueue = field(default_factory=lambda: CommandQueue("io"))
    gpu: CommandQueue = field(default_factory=lambda: CommandQueue("gpu"))

    @property
    def makespan_ms(self) -> float:
        """Completion time of all submitted work."""
        return max(self.io.free_at, self.gpu.free_at)

    def all_events(self) -> List[QueueEvent]:
        """Merged, time-ordered event log across both queues."""
        return sorted(self.io.events + self.gpu.events, key=lambda e: (e.start_ms, e.end_ms))

"""Simulation session: binds queues, memory pools, and accounting together.

Executors (``repro.runtime``) drive a :class:`Simulation` — submitting IO
and kernel work, allocating/freeing memory at event boundaries — and then
:meth:`Simulation.finish` assembles the :class:`~repro.gpusim.timeline.RunResult`.

Memory events are recorded as rows of a delta log — three typed columns
(float64 times, int64 byte deltas, int8 tie ranks) — and integrated at
finish time into the timeline's two columns: executors allocate at *event
completion times* that do not arrive in chronological order (a disk load
finishes long before the transform kernel enqueued after it), so the step
function can only be built once all events are known.  Rows arrive one at
a time through the pool-checked ``alloc_*``/``free_*`` calls, or whole
columns at a time through :meth:`Simulation.log_memory` (replayed passes,
weight staging, KV growth, teardown).  The pools only check that every
name is allocated and freed once; the delta log is the one memory record.

**Tie-breaking rule.**  Deltas at equal timestamps integrate *frees before
allocations* (sorted by (time, rank, delta), so negative deltas come
first).  An executor that frees a unified-memory staging copy and
allocates the texture copy "at the same millisecond" models an exchange,
not a transient double-residency — integrating the allocation first would
overstate peak memory by the staging size, with the overstatement
depending on executor submission order.  ``build_timeline`` implements the
rule with a numpy lexsort + cumsum over the whole delta log, so the
timeline depends only on the multiset of rows, never on the order (or the
batching) in which they were appended.

The rule has one executor-visible escape hatch for frees that model the
*other* semantics: ``free_um(..., after_allocs=True)`` applies after the
allocations of the same instant.  A serialized model file that stays mapped
until the last tensor has been copied out of it really does coexist with
that tensor's fresh allocation for an instant — the double-residency is the
init-time transient behind Table 1's ~3x peaks, so the free must not erase
it just because both deltas carry the same timestamp.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceProfile
from repro.gpusim.energy import measure_energy
from repro.gpusim.memory import MemoryPool
from repro.gpusim.queues import DualQueue
from repro.gpusim.timeline import MemoryTimeline, Phases, RunResult


class Simulation:
    """One simulated run of a model under some runtime on a device.

    The session enforces the device RAM budget across unified + texture
    memory combined (mobile unified architectures share physical RAM), so an
    over-eager preloader hits the paper's Figure 10 OOM condition; the
    violation is detected when the timeline is integrated at finish time.
    """

    def __init__(self, device: DeviceProfile, *, model: str, runtime: str) -> None:
        self.device = device
        self.model = model
        self.runtime = runtime
        self.queues = DualQueue()
        # Pools validate alloc/free pairing and track sizes; the timeline is
        # integrated from the delta log at finish.
        self.um = MemoryPool("unified")
        self.tm = MemoryPool("texture")
        self.phases = Phases()
        # The delta log's columns: time_ms, delta_bytes, and rank (0
        # integrates with the default frees-before-allocs tie rule; 1 marks
        # after-alloc frees).
        self._times = array("d")
        self._amounts = array("q")
        self._ranks = array("b")
        self._timeline: Optional[Tuple[int, MemoryTimeline]] = None
        self._finished: Optional[RunResult] = None

    # ------------------------------------------------------------- memory ops
    @property
    def total_in_use(self) -> int:
        return self.um.in_use + self.tm.in_use

    def _row(self, time_ms: float, nbytes: int, rank: int = 0) -> None:
        self._times.append(time_ms)
        self._amounts.append(nbytes)
        self._ranks.append(rank)

    def alloc_um(self, name: str, nbytes: int, time_ms: float) -> None:
        self.um.allocate(name, nbytes)
        self._row(time_ms, nbytes)

    def free_um(self, name: str, time_ms: float, *, after_allocs: bool = False) -> None:
        """Free a unified-memory allocation.

        ``after_allocs=True`` integrates the free *after* same-timestamp
        allocations instead of before them (see the module docstring): use
        it when the freed buffer genuinely coexists for an instant with
        memory allocated at the same time — a copy-out transient — rather
        than being exchanged for it.
        """
        self._row(time_ms, -self.um.free(name), 1 if after_allocs else 0)

    def alloc_tm(self, name: str, nbytes: int, time_ms: float) -> None:
        self.tm.allocate(name, nbytes)
        self._row(time_ms, nbytes)

    def free_tm(self, name: str, time_ms: float) -> None:
        self._row(time_ms, -self.tm.free(name))

    def log_memory(self, times: Sequence[float], amounts: Sequence[int]) -> None:
        """Append one rank-0 delta-log row per ``(times[i], amounts[i])``,
        whole columns at once.

        The rows bypass the :class:`MemoryPool` bookkeeping, so the caller
        keeps them balanced: a replayed pass its recorded allocs and frees,
        weight staging its pool registrations, a decode its KV grant and
        release.
        """
        times = np.asarray(times, dtype=np.float64)
        amounts = np.asarray(amounts, dtype=np.int64)
        if times.shape != amounts.shape or times.ndim != 1:
            raise ValueError("times and amounts must be columns of one length")
        self._times.frombytes(times.tobytes())
        self._amounts.frombytes(amounts.tobytes())
        self._ranks.frombytes(bytes(len(times)))

    def free_all(self, time_ms: float) -> None:
        """Release every live allocation in both pools (model teardown),
        logging every live size as one column so the timeline returns to
        zero."""
        sizes = self.um.free_all() + self.tm.free_all()
        if sizes:
            self.log_memory([time_ms] * len(sizes), [-size for size in sizes])

    def build_timeline(self) -> MemoryTimeline:
        """Integrate the delta log into a chronological step function.

        One lexsort of the log's columns orders the rows and one cumsum
        gives the totals; the columns go into the timeline as they are.  The
        log's arrays are read through ``np.frombuffer`` views that die
        before this returns (an ``array`` exporting its buffer cannot grow),
        so the timeline holds copies.  The result is memoised on the log
        length: ``oom`` and ``finish`` (and repeated OOM probes) share one
        timeline instead of re-sorting per call.  Any new delta invalidates
        the memo.
        """
        n = len(self._times)
        if self._timeline is not None and self._timeline[0] == n:
            return self._timeline[1]
        times = np.zeros(n + 1, dtype=np.float64)
        totals = np.zeros(n + 1, dtype=np.int64)
        if n:
            log_times = np.frombuffer(self._times, dtype=np.float64)
            log_amounts = np.frombuffer(self._amounts, dtype=np.int64)
            log_ranks = np.frombuffer(self._ranks, dtype=np.int8)
            # Chronological; frees before allocs at ties, except rank-1
            # after-alloc frees which land last (see module docs).
            order = np.lexsort((log_amounts, log_ranks, log_times))
            np.cumsum(log_amounts[order], out=totals[1:])
            times[1:] = log_times[order]
            del log_times, log_amounts, log_ranks
            if totals.min() < 0:
                raise ValueError("memory cannot be negative")
        timeline = MemoryTimeline(times, totals)
        self._timeline = (n, timeline)
        return timeline

    @property
    def oom(self) -> Optional[str]:
        """Diagnostic string if the RAM budget is ever exceeded, else None."""
        peak = self.build_timeline().peak_bytes
        if peak > self.device.ram_budget_bytes:
            return (
                f"{self.model}/{self.runtime}: peak {peak / 1e6:.0f} MB exceeds "
                f"{self.device.ram_budget_bytes / 1e6:.0f} MB budget on {self.device.name}"
            )
        return None

    # --------------------------------------------------------------- finish
    def finish(self, *, details: Optional[Dict[str, float]] = None) -> RunResult:
        """Close the run and assemble the result record."""
        end = self.queues.makespan_ms
        memory = self.build_timeline()
        report = measure_energy(self.queues, self.device, end_ms=end)
        result = RunResult(
            model=self.model,
            runtime=self.runtime,
            device=self.device.name,
            latency_ms=end,
            phases=self.phases,
            memory=memory,
            peak_memory_bytes=memory.peak_bytes,
            avg_memory_bytes=memory.average_bytes(0.0, end),
            energy_j=report.energy_j,
            avg_power_w=report.avg_power_w,
            details=dict(details or {}),
        )
        self._finished = result
        return result

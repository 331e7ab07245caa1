"""Simulation session: binds queues, memory pools, and accounting together.

Executors (``repro.runtime``) drive a :class:`Simulation` — submitting IO
and kernel work, allocating/freeing memory at event boundaries — and then
:meth:`Simulation.finish` assembles the :class:`~repro.gpusim.timeline.RunResult`.

Memory events are recorded as (time, delta) pairs and integrated at finish
time into the timeline's two columns: executors allocate at *event
completion times* that do not arrive in chronological order (a disk load
finishes long before the transform kernel enqueued after it), so the step
function can only be built once all events are known.  The pools only
check that every name is allocated and freed once; the delta log is the
one memory record.

**Tie-breaking rule.**  Deltas at equal timestamps integrate *frees before
allocations* (sorted by (time, delta), so negative deltas come first).  An
executor that frees a unified-memory staging copy and allocates the texture
copy "at the same millisecond" models an exchange, not a transient
double-residency — integrating the allocation first would overstate peak
memory by the staging size, with the overstatement depending on executor
submission order.  ``build_timeline`` implements the rule with a numpy
lexsort + cumsum over the whole delta log.

The rule has one executor-visible escape hatch for frees that model the
*other* semantics: ``free_um(..., after_allocs=True)`` applies after the
allocations of the same instant.  A serialized model file that stays mapped
until the last tensor has been copied out of it really does coexist with
that tensor's fresh allocation for an instant — the double-residency is the
init-time transient behind Table 1's ~3x peaks, so the free must not erase
it just because both deltas carry the same timestamp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
        # (time_ms, delta_bytes, rank): rank 0 integrates with the default
        # frees-before-allocs tie rule; rank 1 marks after-alloc frees.
        self._deltas: List[Tuple[float, int, int]] = []
        self._timeline: Optional[Tuple[int, MemoryTimeline]] = None
        self._finished: Optional[RunResult] = None

    # ------------------------------------------------------------- memory ops
    @property
    def total_in_use(self) -> int:
        return self.um.in_use + self.tm.in_use

    def alloc_um(self, name: str, nbytes: int, time_ms: float) -> None:
        self.um.allocate(name, nbytes)
        self._deltas.append((time_ms, nbytes, 0))

    def free_um(self, name: str, time_ms: float, *, after_allocs: bool = False) -> None:
        """Free a unified-memory allocation.

        ``after_allocs=True`` integrates the free *after* same-timestamp
        allocations instead of before them (see the module docstring): use
        it when the freed buffer genuinely coexists for an instant with
        memory allocated at the same time — a copy-out transient — rather
        than being exchanged for it.
        """
        nbytes = self.um.free(name)
        self._deltas.append((time_ms, -nbytes, 1 if after_allocs else 0))

    def alloc_tm(self, name: str, nbytes: int, time_ms: float) -> None:
        self.tm.allocate(name, nbytes)
        self._deltas.append((time_ms, nbytes, 0))

    def free_tm(self, name: str, time_ms: float) -> None:
        nbytes = self.tm.free(name)
        self._deltas.append((time_ms, -nbytes, 0))

    def free_all(self, time_ms: float) -> None:
        """Release every live allocation in both pools (model teardown),
        recording the deltas so the timeline returns to zero."""
        for name in list(self.um.live_names()):
            self.free_um(name, time_ms)
        for name in list(self.tm.live_names()):
            self.free_tm(name, time_ms)

    def raw_deltas(self) -> List[Tuple[float, int, int]]:
        """The mutable delta log, for trusted bulk-append replay paths.

        Appended ``(time_ms, delta_bytes, rank)`` entries bypass the
        :class:`MemoryPool` bookkeeping, so the caller must guarantee they
        are alloc/free balanced (the runtime's steady-state replay verifies
        this during recording).
        """
        return self._deltas

    def build_timeline(self) -> MemoryTimeline:
        """Integrate the delta log into a chronological step function.

        One lexsort of the log orders the rows and one cumsum gives the
        totals; the columns go into the timeline as they are.  The result
        is memoised on the log length: ``oom`` and ``finish`` (and repeated
        OOM probes) share one timeline instead of re-sorting per call.  Any
        new delta invalidates the memo.
        """
        if self._timeline is not None and self._timeline[0] == len(self._deltas):
            return self._timeline[1]
        log = self._deltas
        n = len(log)
        times = np.zeros(n + 1, dtype=np.float64)
        totals = np.zeros(n + 1, dtype=np.int64)
        if n:
            log_times = np.array([d[0] for d in log], dtype=np.float64)
            log_deltas = np.array([d[1] for d in log], dtype=np.int64)
            ranks = np.array([d[2] for d in log], dtype=np.int8)
            # Chronological; frees before allocs at ties, except rank-1
            # after-alloc frees which land last (see module docs).
            order = np.lexsort((log_deltas, ranks, log_times))
            np.cumsum(log_deltas[order], out=totals[1:])
            if totals.min() < 0:
                raise ValueError("memory cannot be negative")
            times[1:] = log_times[order]
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

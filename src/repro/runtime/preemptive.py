"""Preemptive multi-DNN scheduling (paper Figure 1(c), related work Pantheon).

The paper studies FIFO pipelines and explicitly leaves preemption out of
scope, but sketches the alternative: a high-priority model interrupts a
lower-priority one mid-inference.  This extension models that policy on top
of the simulator and quantifies why FlashMem suits it:

- under a **preloading** runtime, the preempted model's full weight set is
  resident; servicing the urgent model means either keeping both resident
  (peak = sum of models) or evicting and later re-paying initialization;
- under **FlashMem**, the preempted model's resident state is only its
  preloaded set W plus in-flight chunks, so the urgent model starts almost
  immediately and the victim resumes by re-streaming from its preemption
  layer.

The scheduler replays a victim run up to the preemption instant, runs the
urgent model to completion, then resumes the victim (restart-from-layer for
FlashMem; full re-init for an evicting preloader).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.gpusim.timeline import MemoryTimeline, RunResult


@dataclass
class PreemptionOutcome:
    """Timeline of one preemption episode."""

    runtime: str
    #: Time from the urgent request to the urgent model's first kernel.
    urgent_start_delay_ms: float
    #: Urgent model's completion time measured from the request.
    urgent_completion_ms: float
    #: Total session time (victim + urgent + victim resume).
    session_ms: float
    #: Peak memory across the episode.
    peak_memory_bytes: int
    memory: MemoryTimeline


def run_preemption_episode(
    runtime: str,
    victim: Callable[[], RunResult],
    urgent: Callable[[], RunResult],
    *,
    preempt_fraction: float = 0.5,
    victim_resume: Optional[Callable[[float], RunResult]] = None,
    switch_overhead_ms: float = 5.0,
) -> PreemptionOutcome:
    """Simulate: victim runs, urgent arrives at ``preempt_fraction`` of the
    victim's span, victim pauses, urgent runs, victim resumes.

    ``victim_resume(progress_fraction)`` produces the resumed run; by
    default the victim restarts from scratch (an evicting preloader).  A
    FlashMem caller passes a resume that re-streams only the remaining
    layers (approximated as the remaining fraction of the original run
    minus the one-off setup).
    """
    if not 0.0 < preempt_fraction < 1.0:
        raise ValueError("preempt_fraction must be in (0, 1)")
    if switch_overhead_ms < 0:
        raise ValueError("switch_overhead_ms must be non-negative")
    first = victim()
    preempt_at = first.latency_ms * preempt_fraction
    urgent_run = urgent()
    if victim_resume is None:
        resumed = victim()  # full restart
    else:
        resumed = victim_resume(preempt_fraction)

    # The victim's rows up to the preemption instant; its resident state
    # then stays allocated while the urgent model runs (FlashMem: small;
    # preloader: everything), and the resumed victim follows.
    paused = first.memory
    upto = int(np.searchsorted(paused.times, preempt_at, side="right"))
    held = paused.usage_at(preempt_at)
    urgent_offset = preempt_at + switch_overhead_ms
    resume_offset = urgent_offset + urgent_run.latency_ms + switch_overhead_ms
    memory = MemoryTimeline(
        np.concatenate(
            (
                [0.0],
                0.0 + paused.times[:upto],
                urgent_offset + urgent_run.memory.times,
                resume_offset + resumed.memory.times,
            )
        ),
        np.concatenate(
            ([0], paused.totals[:upto], urgent_run.memory.totals + held, resumed.memory.totals)
        ),
    )
    session_ms = resume_offset + resumed.latency_ms
    return PreemptionOutcome(
        runtime=runtime,
        urgent_start_delay_ms=switch_overhead_ms,
        urgent_completion_ms=switch_overhead_ms + urgent_run.latency_ms,
        session_ms=session_ms,
        peak_memory_bytes=memory.peak_bytes,
        memory=memory,
    )


def flashmem_resume_factory(run: Callable[[], RunResult], setup_ms: float) -> Callable[[float], RunResult]:
    """Resume model for FlashMem: re-stream only the remaining layers.

    The GPU context survives the switch, so the resumed run costs the
    remaining fraction of the post-setup span.  The returned RunResult is a
    scaled copy adequate for episode accounting.
    """

    def resume(progress_fraction: float) -> RunResult:
        full = run()
        remaining = max(0.0, (full.latency_ms - setup_ms) * (1.0 - progress_fraction))
        kept = full.memory.times >= setup_ms
        memory = MemoryTimeline(
            np.concatenate(
                ([0.0], (full.memory.times[kept] - setup_ms) * (1.0 - progress_fraction), [remaining])
            ),
            np.concatenate(([0], full.memory.totals[kept], [0])),
        )
        return RunResult(
            model=full.model,
            runtime=full.runtime,
            device=full.device,
            latency_ms=remaining,
            phases=full.phases,
            memory=memory,
            peak_memory_bytes=memory.peak_bytes,
            avg_memory_bytes=memory.average_bytes(0.0, max(remaining, 1e-9)),
            energy_j=full.energy_j * (1.0 - progress_fraction),
            avg_power_w=full.avg_power_w,
            details=dict(full.details),
        )

    return resume

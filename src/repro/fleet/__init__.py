"""Fleet-scale trace replay: device-population simulation at device-hours/s.

A :class:`~repro.fleet.trace.Trace` describes realistic multi-app traffic —
seeded arrivals, mixed model sizes (vision prefill + LLM decode), priorities,
and thermal/battery throttle windows.  The replay engine
(:mod:`repro.fleet.replay`) schedules it FIFO per device, fetching each
distinct ``(model, device, runtime, scenario, throttle-state)`` *episode*
from a memo (:mod:`repro.fleet.episode`) that simulates it exactly once and
streams its cached timeline columns, shifted to each invocation's start, into
the cell's timeline digest and average.
:mod:`repro.fleet.population` fans the device × runtime grid out over a
pre-warmed process pool and reports SLO attainment / p50 / p99 / energy per
cell plus the headline simulated-device-hours-per-wall-clock-second.
"""

from repro.fleet.episode import Episode, EpisodeProvider
from repro.fleet.population import FleetReport, run_fleet
from repro.fleet.replay import CellResult, replay_trace
from repro.fleet.trace import ThrottleWindow, Trace, TraceInvocation, generate_trace

__all__ = [
    "CellResult",
    "Episode",
    "EpisodeProvider",
    "FleetReport",
    "ThrottleWindow",
    "Trace",
    "TraceInvocation",
    "generate_trace",
    "replay_trace",
    "run_fleet",
]

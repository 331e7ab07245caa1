"""Phase-based power and energy model.

Table 9's structure — FlashMem draws slightly *more* power than SmartMem
(extra concurrent disk traffic) yet far less *energy* (much shorter runs) —
falls out of integrating phase power over the dual-queue event logs: at each
instant the draw is determined by which queues are busy (idle / IO only /
compute only / both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.gpusim.device import DeviceProfile
from repro.gpusim.queues import DualQueue


@dataclass(frozen=True)
class EnergyReport:
    """Integrated energy and mean power over one run."""

    energy_j: float
    avg_power_w: float
    compute_only_ms: float
    io_only_ms: float
    overlap_ms: float
    idle_ms: float


def _total_length(intervals: List[Tuple[float, float]]) -> float:
    """Summed interval length as a plain left fold.

    Not the built-in ``sum``: Python 3.12 made float ``sum`` compensated,
    which would let the energy figures depend on the interpreter version.
    """
    total = 0.0
    for start, end in intervals:
        total += end - start
    return total


def _overlap_length(a: List[Tuple[float, float]], b: List[Tuple[float, float]]) -> float:
    """Total length of the intersection of two disjoint interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def measure_energy(queues: DualQueue, device: DeviceProfile, *, end_ms: float = 0.0) -> EnergyReport:
    """Integrate phase power over the run recorded in ``queues``.

    ``end_ms`` extends the accounting window beyond the last event (idle
    tail); the window starts at 0.
    """
    horizon = max(queues.makespan_ms, end_ms)
    io_busy = queues.io.busy_intervals()
    gpu_busy = queues.gpu.busy_intervals()
    io_total = _total_length(io_busy)
    gpu_total = _total_length(gpu_busy)
    overlap = _overlap_length(io_busy, gpu_busy)
    io_only = io_total - overlap
    gpu_only = gpu_total - overlap
    idle = max(0.0, horizon - io_only - gpu_only - overlap)
    rails = device.power
    energy_mj = (
        rails.overlap_w * overlap
        + rails.io_w * io_only
        + rails.compute_w * gpu_only
        + rails.idle_w * idle
    )
    energy_j = energy_mj / 1e3  # W * ms -> J
    seconds = horizon / 1e3  # 0.0 for a horizon too small to convert (subnormal)
    avg_power = energy_j / seconds if seconds > 0 else 0.0
    return EnergyReport(
        energy_j=energy_j,
        avg_power_w=avg_power,
        compute_only_ms=gpu_only,
        io_only_ms=io_only,
        overlap_ms=overlap,
        idle_ms=idle,
    )

"""Analytic kernel cost model with overlap interference.

The core of the simulator: how long does one lowered operator take, and how
much does concurrently streaming extra weight bytes through the kernel slow
it down?  The interference behaviour reproduces the paper's Figure 2:

- **Reusable** kernels (MatMul/Conv) are compute-bound; their arithmetic
  pipeline leaves memory-pipeline slack that hides embedded loads, so
  latency grows slowly with the streamed ratio.
- **Elemental** kernels are memory-bound with tiny base latency; embedded
  loads share the memory pipeline roughly 1:2 with the kernel's own traffic,
  so relative growth is linear but the absolute cost stays small.
- **Hierarchical** kernels (Softmax/LayerNorm) synchronise between stages;
  any concurrent traffic lands on the critical path with amplification, so
  they effectively admit no overlap (the paper assigns them a 0% threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.gpusim.device import DeviceProfile
from repro.graph.ops import OpClass, OpKind, OpSpec

#: Superlinear contention coefficient: exposed streaming time is amplified
#: by (1 + gamma * excess / base) — cache/write-buffer thrash when a kernel
#: is crammed far past its capacity.
CONTENTION_GAMMA = 0.5

#: Relative bandwidth of reading KV tiles kept in plain unified memory vs
#: the texture path: UM-resident KV misses the texture cache and pays
#: uncoalesced strided reads, so the effective bandwidth drops.
UM_KV_BW_FACTOR = 0.55

#: Relative latency penalty of a BRANCHY kernel with embedded loads, on its
#: whole body (§4.4: conditional checks "cause warp-level branch divergence
#: and reduce SIMT efficiency").  The pricing tables apply it.
BRANCH_DIVERGENCE_PENALTY = 0.35


@dataclass(frozen=True)
class InterferenceCoeffs:
    """Shape of the latency-vs-streamed-ratio curve for one operator class.

    ``hide_fraction`` — share of compute/memory slack usable to hide loads.
    ``share_coeff``   — slowdown per unit of streamed time that could not be
                        hidden (memory-pipeline sharing).
    ``sync_penalty``  — fixed relative penalty as soon as any load is
                        embedded (pipeline restructuring + barrier cost).
    """

    hide_fraction: float
    share_coeff: float
    sync_penalty: float


#: Calibrated per-class interference (see Figure 2 reproduction bench).
INTERFERENCE: Dict[OpClass, InterferenceCoeffs] = {
    OpClass.REUSABLE: InterferenceCoeffs(hide_fraction=0.90, share_coeff=0.35, sync_penalty=0.01),
    OpClass.ELEMENTAL: InterferenceCoeffs(hide_fraction=0.10, share_coeff=0.50, sync_penalty=0.02),
    OpClass.HIERARCHICAL: InterferenceCoeffs(hide_fraction=0.0, share_coeff=1.60, sync_penalty=0.10),
    OpClass.LAYOUT: InterferenceCoeffs(hide_fraction=0.0, share_coeff=1.0, sync_penalty=0.0),
}


@dataclass(frozen=True)
class FlashAttentionKernel:
    """Tiled single-query attention over a KV cache (decode phase).

    The kernel walks the cache in tiles of ``tile_tokens`` K/V rows, doing
    the QK^T dot products, online softmax and PV accumulation per tile, with
    the *next* tile's fetch double-buffered behind the *current* tile's
    arithmetic.  Per-tile cost is therefore ``max(compute, fetch)`` after an
    exposed first-tile fill, and total latency depends only on the number of
    tiles — every tile is priced full (the last one is padded and masked,
    as real tiled kernels do), which is what makes per-token decode cost
    piecewise-constant in context length (the extrapolation lever).

    Tiles come in two fetch classes, set by the residency plan: the most
    recent ``resident_tiles`` live in GPU memory (texture or unified), older
    tiles spill to disk and stream through the IO pipeline.  The executors
    price calls in bulk with
    :func:`repro.gpusim.pricing.flash_attention_time_table`.
    """

    heads: int
    head_dim: int
    tile_tokens: int
    dtype_bytes: int = 2

    @classmethod
    def from_spec(cls, spec: OpSpec) -> "FlashAttentionKernel":
        if spec.kind is not OpKind.FLASH_ATTENTION:
            raise ValueError(f"not a FlashAttention spec: {spec.kind}")
        return cls(
            heads=spec.attrs["heads"],
            head_dim=spec.attrs["head_dim"],
            tile_tokens=spec.attrs["tile_tokens"],
            dtype_bytes=spec.output_spec.dtype_bytes,
        )


class KernelCostModel:
    """Prices lowered operators on a device, with optional embedded loads."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device

    # ------------------------------------------------------------- base cost
    def base_time_ms(self, op: OpSpec, *, efficiency: float = 1.0) -> float:
        """Roofline latency of ``op`` without any embedded loads.

        ``efficiency`` scales the achievable compute/memory throughput —
        framework profiles use it to model less-optimised kernels (e.g.
        ExecuTorch's lack of GPU-specific tuning).
        """
        if efficiency <= 0:
            raise ValueError("efficiency must be positive")
        if op.op_class is OpClass.LAYOUT:
            # Pure layout ops are a data copy through unified memory.
            copy = op.output_bytes / self.device.um_bw
            return self.device.kernel_launch_ms + copy
        t_compute = self.device.compute_time_ms(op.flops) / efficiency
        t_memory = self.device.memory_time_ms(op.bytes_moved) / efficiency
        return self.device.kernel_launch_ms + max(t_compute, t_memory)

    def compute_slack_ms(self, op: OpSpec, *, efficiency: float = 1.0) -> float:
        """Memory-pipeline idle time while the kernel's arithmetic runs.

        This is the budget an embedded load can hide inside (compute-bound
        kernels have lots; memory-bound kernels have none).
        """
        t_compute = self.device.compute_time_ms(op.flops) / efficiency
        t_memory = self.device.memory_time_ms(op.bytes_moved) / efficiency
        return max(0.0, t_compute - t_memory)

    # ----------------------------------------------------- with embedded load
    def time_with_load_ms(self, op: OpSpec, extra_bytes: int, *, efficiency: float = 1.0) -> float:
        """Latency when the kernel also streams ``extra_bytes`` of weights.

        The streamed bytes travel the raw texture-upload path; whatever does
        not fit in the kernel's slack serialises, scaled by the class's
        memory-sharing coefficient, plus a fixed synchronisation penalty.
        The exposed part grows *superlinearly* relative to the kernel's base
        latency: a kernel crammed far past its capacity thrashes the texture
        cache and write-combining buffers (this is what makes Always-Next
        cramming expensive, Figure 9).
        """
        base = self.base_time_ms(op, efficiency=efficiency)
        if extra_bytes <= 0:
            return base
        coeffs = INTERFERENCE[op.op_class]
        stream_time = extra_bytes / self.device.tm_upload_bw
        hidden = min(stream_time, self.compute_slack_ms(op, efficiency=efficiency) * coeffs.hide_fraction)
        excess = stream_time - hidden
        exposed = coeffs.share_coeff * excess * (1.0 + CONTENTION_GAMMA * excess / base)
        return base * (1.0 + coeffs.sync_penalty) + exposed

    def slowdown_fraction(self, op: OpSpec, extra_bytes: int, *, efficiency: float = 1.0) -> float:
        """Relative latency increase from streaming ``extra_bytes``.

        This is the quantity Figure 2 plots and the load-capacity thresholds
        (0% / 20% / 300%) are defined over.
        """
        base = self.base_time_ms(op, efficiency=efficiency)
        with_load = self.time_with_load_ms(op, extra_bytes, efficiency=efficiency)
        return (with_load - base) / base

    def load_capacity_bytes(self, op: OpSpec, threshold: float, *, efficiency: float = 1.0) -> int:
        """Largest embedded load keeping slowdown within ``threshold``.

        Analytic inverse of :meth:`slowdown_fraction`.  Returns 0 when even
        an infinitesimal load breaches the threshold (hierarchical ops with
        a 0% threshold).
        """
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        base = self.base_time_ms(op, efficiency=efficiency)
        coeffs = INTERFERENCE[op.op_class]
        if base * coeffs.sync_penalty > threshold * base:
            return 0
        # Budget for exposed streaming time after the sync penalty.
        exposed_budget = threshold * base - coeffs.sync_penalty * base
        hidden_budget = self.compute_slack_ms(op, efficiency=efficiency) * coeffs.hide_fraction
        if coeffs.share_coeff <= 0:
            stream_budget = float("inf")
        else:
            # Invert share * e * (1 + gamma * e / base) = exposed_budget —
            # a quadratic in the excess streaming time e.
            a = coeffs.share_coeff * CONTENTION_GAMMA / base
            b = coeffs.share_coeff
            c = -exposed_budget
            excess = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)
            stream_budget = hidden_budget + excess
        return max(0, int(stream_budget * self.device.tm_upload_bw))

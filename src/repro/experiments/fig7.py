"""Figure 7 — breakdown: incremental contribution of each optimization.

For ViT, SD-UNet, and GPTN-1.3B, measure latency speedup and memory
reduction over the SmartMem baseline as the optimisations stack up:

1. ``+OPG``       — overlap plan on the unfused graph, dedicated data-
                    loading kernels (no rewriting).
2. ``+Fusion``    — adaptive fusion added.
3. ``+Rewriting`` — branch-free pipelined kernels (full FlashMem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.experiments.common import (
    DEFAULT_DEVICE,
    cached_capacity,
    cached_graph,
    framework_result,
)
from repro.experiments.report import render_table
from repro.gpusim.device import get_device

MODELS = ["ViT", "SD-UNet", "GPTN-1.3B"]
VARIANTS = ["+OPG", "+Fusion", "+Rewriting"]

#: Paper's cumulative ranges for EXPERIMENTS.md: OPG 5.3-8.1x speedup and
#: 2.1-3.8x memory; fusion adds 1.5-5.1x; rewriting adds 1.0-2.55x.
PAPER_NOTE = "OPG 5.3-8.1x, +Fusion 1.5-5.1x, +Rewriting 1.0-2.55x (latency)"


def _variant_config(variant: str) -> FlashMemConfig:
    cfg = FlashMemConfig()
    if variant == "+OPG":
        cfg.use_adaptive_fusion = False
        cfg.use_kernel_rewriting = False
    elif variant == "+Fusion":
        cfg.use_adaptive_fusion = True
        cfg.use_kernel_rewriting = False
    elif variant == "+Rewriting":
        cfg.use_adaptive_fusion = True
        cfg.use_kernel_rewriting = True
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return cfg


@dataclass
class Fig7Row:
    model: str
    variant: str
    latency_ms: float
    speedup_vs_smem: float
    avg_memory_mb: float
    mem_reduction_vs_smem: float


@dataclass
class Fig7Result:
    rows: List[Fig7Row]

    def render(self) -> str:
        return render_table(
            ["Model", "Variant", "Latency (ms)", "Speedup", "Avg mem (MB)", "Mem reduction"],
            [
                (r.model, r.variant, r.latency_ms, r.speedup_vs_smem, r.avg_memory_mb, r.mem_reduction_vs_smem)
                for r in self.rows
            ],
            title=f"Figure 7 — optimization breakdown vs SmartMem (paper: {PAPER_NOTE})",
        )


def run(device: str = DEFAULT_DEVICE, *, models: List[str] = None) -> Fig7Result:
    dev = get_device(device)
    capacity = cached_capacity(device)
    rows: List[Fig7Row] = []
    for model in models or MODELS:
        smem = framework_result("SMem", model, device)
        assert smem is not None, f"SmartMem must support {model} for Figure 7"
        graph = cached_graph(model)
        for variant in VARIANTS:
            fm = FlashMem(_variant_config(variant))
            result = fm.compile_and_run(graph, dev, capacity=capacity)
            rows.append(
                Fig7Row(
                    model=model,
                    variant=variant,
                    latency_ms=result.latency_ms,
                    speedup_vs_smem=smem.latency_ms / result.latency_ms,
                    avg_memory_mb=result.avg_memory_mb,
                    mem_reduction_vs_smem=smem.avg_memory_mb / result.avg_memory_mb,
                )
            )
    return Fig7Result(rows=rows)

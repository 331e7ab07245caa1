"""Figure 9 — FlashMem vs naive overlap strategies.

Runs Always-Next Loading and Same-Op-Type Prefetching plans through the
same executor and reports the slowdown relative to FlashMem's LC-OPG plan
(paper: up to 4.3x and 2.4x slower respectively).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.common import (
    DEFAULT_DEVICE,
    cached_capacity,
    cached_graph,
    flashmem_result,
)
from repro.experiments.report import render_table
from repro.gpusim.device import get_device
from repro.graph.lowering import eliminate_layout_ops
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.naive_overlap import AlwaysNextPlanner, SameOpTypePlanner

MODELS = ["ViT", "GPTN-S", "DeepViT", "Whisp-M"]


@dataclass
class Fig9Row:
    model: str
    flashmem_ms: float
    same_next_ms: float
    always_next_ms: float

    @property
    def same_next_slowdown(self) -> float:
        return self.same_next_ms / self.flashmem_ms

    @property
    def always_next_slowdown(self) -> float:
        return self.always_next_ms / self.flashmem_ms


@dataclass
class Fig9Result:
    rows: List[Fig9Row]

    def render(self) -> str:
        return render_table(
            ["Model", "Ours (ms)", "SameNext (ms)", "x", "AlwaysNext (ms)", "x"],
            [
                (
                    r.model, r.flashmem_ms,
                    r.same_next_ms, r.same_next_slowdown,
                    r.always_next_ms, r.always_next_slowdown,
                )
                for r in self.rows
            ],
            title="Figure 9 — naive overlap strategies (paper: AlwaysNext up to 4.3x, SameNext up to 2.4x)",
        )


def run(device: str = DEFAULT_DEVICE, *, models: Optional[List[str]] = None) -> Fig9Result:
    dev = get_device(device)
    capacity = cached_capacity(device)
    rows: List[Fig9Row] = []
    for model in models or MODELS:
        ours = flashmem_result(model, device)
        graph = eliminate_layout_ops(cached_graph(model))
        executor = FlashMemExecutor(dev)
        same = executor.run(
            graph,
            SameOpTypePlanner().solve(graph, capacity, device_name=device),
            runtime_name="SameNext",
        )
        always = executor.run(
            graph,
            AlwaysNextPlanner().solve(graph, capacity, device_name=device),
            runtime_name="AlwaysNext",
        )
        rows.append(
            Fig9Row(
                model=model,
                flashmem_ms=ours.latency_ms,
                same_next_ms=same.latency_ms,
                always_next_ms=always.latency_ms,
            )
        )
    return Fig9Result(rows=rows)

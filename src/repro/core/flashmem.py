"""FlashMem public facade: compile a model, run it, inspect the artifacts.

The workflow of the paper's Figure 3::

    parse model -> capacity prediction -> LC-OPG overlap plan
        -> (adaptive fusion on constraint failure) -> kernel rewriting
        -> plan-driven streamed execution

Typical use::

    from repro import FlashMem, FlashMemConfig, load_model, oneplus_12

    fm = FlashMem(FlashMemConfig.memory_priority())
    compiled = fm.compile(load_model("ViT"), oneplus_12())
    result = fm.run(compiled)
    print(result.latency_ms, result.avg_memory_mb)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.capacity.model import LoadCapacityModel, analytic_capacity_model
from repro.core.config import FlashMemConfig
from repro.fusion.adaptive import AdaptiveFusionPlanner, AdaptiveFusionReport
from repro.graph.dag import Graph
from repro.graph.lowering import eliminate_layout_ops
from repro.graph.ops import OpKind
from repro.gpusim.device import DeviceProfile
from repro.gpusim.timeline import RunResult
from repro.kernels.codegen import ExecStyle, KernelBundle
from repro.kernels.rewriter import KernelRewriter
from repro.opg.lcopg import LcOpgSolver, plan_kv_residency
from repro.opg.plan import OverlapPlan
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.scenario import Scenario


@dataclass
class CompiledModel:
    """Everything FlashMem produces offline for one (model, device) pair."""

    graph: Graph            # the executed graph (layout-eliminated, fused)
    plan: OverlapPlan
    bundle: KernelBundle
    device: DeviceProfile
    fusion_report: Optional[AdaptiveFusionReport] = None
    #: End-to-end wall-clock of ``FlashMem.compile`` (offline cost metric).
    compile_s: float = 0.0

    @property
    def preload_ratio(self) -> float:
        return self.plan.preload_ratio


class FlashMem:
    """The memory-streaming framework, end to end."""

    def __init__(self, config: Optional[FlashMemConfig] = None) -> None:
        self.config = config or FlashMemConfig()

    # ------------------------------------------------------------- pipeline
    def capacity_model(
        self, device: DeviceProfile, *, profile_graphs: Optional[Iterable[Graph]] = None
    ) -> LoadCapacityModel:
        """Build the load-capacity model for ``device``.

        The "gbt" backend trains the regression model the way the paper
        does: over explicit ``profile_graphs`` when given, otherwise over
        the standard model-zoo profile set via the read-through
        capacity-model cache (:mod:`repro.capacity.cache` — trained once
        per device, warm-loaded from the artifact store afterwards).
        "analytic" inverts the simulator's cost model exactly.
        """
        if self.config.capacity_backend == "gbt":
            if profile_graphs is not None:
                return LoadCapacityModel.train(
                    device, profile_graphs, seed=self.config.capacity_seed
                )
            from repro.capacity.cache import trained_capacity_model

            return trained_capacity_model(device, seed=self.config.capacity_seed)
        return analytic_capacity_model(device)

    def compile(
        self,
        graph: Graph,
        device: DeviceProfile,
        *,
        capacity: Optional[LoadCapacityModel] = None,
        target_preload_ratio: Optional[float] = None,
    ) -> CompiledModel:
        """Produce the overlap plan and kernel bundle for ``graph``.

        ``target_preload_ratio`` overrides the λ-derived preload fraction
        (the Figure 8 trade-off knob).
        """
        compile_start = time.perf_counter()
        cfg = self.config
        capacity = capacity or self.capacity_model(device)
        solver = LcOpgSolver(cfg.opg, use_cp=cfg.use_cp)
        lowered = eliminate_layout_ops(graph)
        decode_graph = bool(lowered.kv_cache_specs())
        if decode_graph and target_preload_ratio is None:
            # Decode-phase graphs: weights are steady-state resident.  The
            # single-pass streaming trade-off does not apply — a streamed
            # weight would be re-fetched from disk on *every* generated
            # token, paying the full disk pass per token — so W defaults to
            # as much as the device can hold: everything when it fits,
            # otherwise the largest fraction that leaves room for the
            # activations, the process baseline, and at least one resident
            # KV tile per cache (models too big to preload decode slowly but
            # *bounded*, where the preloading baselines just OOM).  The
            # remaining streaming axis is the KV cache (plan_kv_residency
            # below).  An explicit target_preload_ratio still overrides
            # (the differential tests use it to exercise streamed-weight
            # decode).
            from repro.runtime.executor import FLASHMEM_BASELINE_MB

            tile_sizes = {
                int(n.spec.attrs["tile_tokens"])
                for n in lowered.nodes()
                if n.kind is OpKind.FLASH_ATTENTION
            }
            kv_tile_bytes = lowered.kv_bytes_per_token() * max(tile_sizes, default=0)
            headroom = (
                int(device.ram_budget_bytes * 0.95)
                - int(FLASHMEM_BASELINE_MB * 1e6)
                - lowered.peak_activation_bytes()
                - kv_tile_bytes
            )
            total_w = lowered.total_weight_bytes
            target_preload_ratio = 1.0 if total_w <= headroom else max(0.0, headroom / total_w)
        fusion_report: Optional[AdaptiveFusionReport] = None
        if cfg.use_adaptive_fusion and not decode_graph:
            planner = AdaptiveFusionPlanner(solver, capacity)
            executed, plan, fusion_report = planner.plan(lowered, device_name=device.name)
            if target_preload_ratio is not None:
                plan = solver.solve(
                    executed, capacity, device_name=device.name, target_preload_ratio=target_preload_ratio
                )
        else:
            # Adaptive fusion exists to repair streaming-capacity constraint
            # failures; with decode's full-preload default there is nothing
            # to stream, so decode graphs skip straight to the solve.
            executed = lowered
            plan = solver.solve(
                executed, capacity, device_name=device.name, target_preload_ratio=target_preload_ratio
            )
        if decode_graph:
            plan.kv_plan = plan_kv_residency(executed, plan, device, cfg.opg)
        style = ExecStyle.PIPELINED if cfg.use_kernel_rewriting else ExecStyle.RESIDENT
        bundle = KernelRewriter(style=style).rewrite_graph(executed, plan)
        return CompiledModel(
            graph=executed,
            plan=plan,
            bundle=bundle,
            device=device,
            fusion_report=fusion_report,
            compile_s=time.perf_counter() - compile_start,
        )

    def run(
        self,
        compiled: CompiledModel,
        *,
        scenario: Optional[Scenario] = None,
    ) -> RunResult:
        """Execute a compiled model on the simulator.

        ``scenario`` selects the workload (:meth:`Scenario.prefill` passes,
        the default being one, or :meth:`Scenario.decode` autoregressive
        generation — the latter needs a decode-phase graph so the plan
        carries a KV residency policy).
        """
        executor = FlashMemExecutor(
            compiled.device, rewriting=self.config.use_kernel_rewriting
        )
        return executor.run(compiled.graph, compiled.plan, compiled.bundle, scenario=scenario)

    def compile_and_run(
        self,
        graph: Graph,
        device: DeviceProfile,
        *,
        scenario: Optional[Scenario] = None,
        capacity: Optional[LoadCapacityModel] = None,
        target_preload_ratio: Optional[float] = None,
    ) -> RunResult:
        """One-shot convenience: compile then run."""
        compiled = self.compile(
            graph, device, capacity=capacity, target_preload_ratio=target_preload_ratio
        )
        return self.run(compiled, scenario=scenario)

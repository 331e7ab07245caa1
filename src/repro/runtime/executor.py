"""FlashMem streaming executor: runs an overlap plan on the simulator.

The integrated init+execute pipeline of the paper:

1. GPU setup, then the preloaded set W loads and transforms up front
   (FlashMem's own data-loading kernels use the fast vectorised path).
2. Layer-by-layer execution: disk loads are issued when the GPU reaches each
   weight's ``z_w`` layer; rewritten kernels stream their assigned chunks
   UM -> TM while computing; convolution weights get dedicated Winograd
   transforms at their consumers (non-overlappable, with scratch memory).
3. A kernel whose staged bytes have not arrived **stalls** until the IO
   queue delivers them — late loads cost latency mechanically, which is
   exactly the trade-off the OPG objective balances.

Memory lifetimes: a streamed weight's UM copy lives from disk-load
completion until its last transform; its texture copy lives until its
consumer finishes.  Preloaded weights stay in texture memory for the whole
run.  This is where FlashMem's memory savings come from — they are
*measured* off the timeline, not asserted.

**Hot path.**  Kernel latencies come from one vectorized pricing table per
(bundle, device) — see :mod:`repro.gpusim.pricing`.  The set W is staged
as columns, and the passes run through the shared segment core
(:mod:`repro.runtime.segment`), which replays steady-state passes exactly
instead of re-simulating them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.graph.dag import Graph
from repro.gpusim.device import DeviceProfile
from repro.gpusim.engine import Simulation
from repro.gpusim import pricing
from repro.kernels.codegen import ExecStyle, KernelBundle
from repro.kernels.rewriter import KernelRewriter
from repro.opg.plan import KvResidencyPlan, OverlapPlan
from repro.runtime.scenario import Scenario
from repro.runtime.segment import (
    WINOGRAD_BW_FACTOR,
    SegmentCore,
    attention_index,
    stage_weights,
    weight_columns,
)

#: Resident process baseline (runtime code, GPU driver arenas), MB.
FLASHMEM_BASELINE_MB = 80.0


class FlashMemExecutor:
    """Plan-driven streaming runtime (the paper's integrated pipeline).

    ``rewriting=False`` disables §4.4's kernel rewriting: the plan's chunk
    transforms run as *dedicated* data-loading kernels interleaved on the
    GPU queue instead of riding inside rewritten compute kernels — the
    OPG-only ablation of Figure 7.
    """

    def __init__(
        self,
        device: DeviceProfile,
        *,
        style: ExecStyle = ExecStyle.PIPELINED,
        rewriting: bool = True,
    ) -> None:
        self.device = device
        self.style = style if rewriting else ExecStyle.RESIDENT
        self.rewriting = rewriting

    def run(
        self,
        graph: Graph,
        plan: OverlapPlan,
        bundle: Optional[KernelBundle] = None,
        *,
        scenario: Optional[Scenario] = None,
        runtime_name: str = "FlashMem",
    ):
        """Simulate the workload described by ``scenario`` (default: one
        prefill pass).

        ``Scenario.prefill(n)`` runs ``n`` streamed inference passes.  Each
        pass re-streams the non-preloaded weights (FlashMem frees them after
        use), which is why a warm-started preloader eventually wins on many
        consecutive same-model inferences (paper §5.2).
        ``Scenario.decode(...)`` runs per-token autoregressive generation
        against the plan's KV residency policy (see :meth:`_decode`).
        A plan that leaves a weight of ``graph`` unscheduled raises
        ValueError (:func:`~repro.runtime.segment.stream_index` checks each
        (graph, plan) pair once).
        """
        scenario = scenario or Scenario.prefill()
        graph.freeze()
        kv_plan = plan.kv_plan
        if scenario.is_decode and kv_plan is None:
            raise ValueError(
                f"decode scenario needs a KV residency plan, but the plan for "
                f"{plan.model!r} has none — compile a decode-phase graph "
                "(repro.graph.models.load_decode_model)"
            )
        sim = Simulation(self.device, model=graph.name, runtime=runtime_name)
        core = SegmentCore(sim, graph, plan, rewriting=self.rewriting)
        if bundle is None:
            bundle = KernelRewriter(style=self.style).rewrite_graph(graph, plan)
        preload_end_ms = self._preload(sim, plan, core)
        # Activation workspace for the whole run.
        sim.alloc_um("activations", graph.peak_activation_bytes(), preload_end_ms)
        durations = self._durations(bundle, core.nodes)

        if scenario.is_decode:
            details = self._decode(core, graph, kv_plan, scenario, durations, preload_end_ms)
        else:
            iterations = scenario.iterations
            core.run_segment(0, iterations, durations, "i")
            gpu = sim.queues.gpu
            details = {
                "iterations": float(iterations),
                "embedded_bytes": float(bundle.total_embedded_bytes()),
                "dedicated_weights": float(len(core.dedicated)),
                "winograd_ms": gpu.busy_time_ms(kind="transform") - sim.phases.transform,
                "replayed_iterations": float(core.replayed),
            }
        details["preload_ratio"] = plan.preload_ratio
        details["preload_end_ms"] = preload_end_ms
        details["stall_ms"] = core.stall_total
        return core.finish(details)

    def _preload(self, sim: Simulation, plan: OverlapPlan, core: SegmentCore) -> float:
        """GPU setup, then load + transform the preloaded set W; returns
        the time execution can start."""
        device = self.device
        io, gpu = sim.queues.io, sim.queues.gpu
        sim.alloc_um("process_baseline", int(FLASHMEM_BASELINE_MB * 1e6), 0.0)
        setup_start, setup_end = gpu.submit_fast("gpu_setup", device.gpu_setup_ms, kind="setup")
        sim.phases.setup = setup_end - setup_start
        weights = weight_columns(core.weights, plan.preloaded_weights)
        nbytes = weights.nbytes
        bw = device.tm_upload_bw * np.where(weights.expansion > 1.0, WINOGRAD_BW_FACTOR, 1.0)
        stage_weights(
            sim,
            weights,
            device.disk_latency_ms + nbytes / device.disk_bw,
            device.kernel_launch_ms + nbytes / bw,
            um_bytes=nbytes,
            free_um=True,
        )
        sim.phases.load = io.busy_time_ms(kind="load")
        sim.phases.transform = gpu.busy_time_ms(kind="transform")
        return sim.queues.makespan_ms

    def _durations(self, bundle: KernelBundle, nodes: list) -> List[float]:
        """Per-node kernel latencies: one vectorized table per (bundle,
        device)."""
        # Rows are a pure function of the (immutable once compiled) bundle,
        # so they are cached on it across runs; the priced table itself is
        # memoized per (device, rows) in the pricing layer.
        rows = bundle.__dict__.get("_pricing_rows")
        if rows is None:
            rows = tuple(
                pricing.spec_row(
                    program.op,
                    extra_bytes=program.embedded_load_bytes,
                    divergent=program.style is ExecStyle.BRANCHY
                    and program.embedded_load_bytes > 0,
                )
                for program in (bundle.programs[node.index] for node in nodes)
            )
            bundle.__dict__["_pricing_rows"] = rows
        return pricing.kernel_time_table(self.device, rows).tolist()

    @staticmethod
    def _decode(
        core: SegmentCore,
        graph: Graph,
        kv_plan: KvResidencyPlan,
        scenario: Scenario,
        durations: List[float],
        preload_end_ms: float,
    ) -> Dict[str, float]:
        """Autoregressive decode: per-token execution with a growing KV cache.

        The prompt's KV (``scenario.context_len`` tokens) is resident when
        decoding starts; each generated token appends one row pair per cache
        (at its ``KV_APPEND`` kernel's completion) and re-prices the tiled
        attention kernels for the grown context.  The plan's
        :class:`~repro.opg.plan.KvResidencyPlan` caps resident tiles — the
        cache stops growing in memory at the cap and older tiles stream from
        disk, which is FlashMem's bounded-memory/degrading-throughput trade
        against the preloading baseline's linear growth.  Each interval
        between the plan's context-length breakpoints is one segment, so a
        1000-token decode simulates a few tokens per segment.
        """
        context_len, tokens = scenario.context_len, scenario.tokens
        sim = core.sim
        initial_kv = kv_plan.resident_bytes_at(context_len) if context_len > 0 else 0
        if initial_kv:
            sim.log_memory([preload_end_ms], [initial_kv])
        breaks = kv_plan.breakpoints(context_len, tokens)
        core.run_decode(
            attention_index(graph),
            durations,
            context_len,
            tokens,
            breaks,
            resident_tiles=kv_plan.resident_tiles,
            texture=kv_plan.texture,
            cap_tokens=kv_plan.resident_tiles * kv_plan.tile_tokens,
        )
        end = sim.queues.makespan_ms
        # Close out the resident KV: its rows are not pool-tracked, so
        # ``free_all`` cannot see them.  Everything the initial grant plus
        # the per-token growth left outstanding is exactly the capped
        # residency at the final context.
        final_kv = kv_plan.resident_bytes_at(context_len + tokens)
        if final_kv:
            sim.log_memory([end], [-final_kv])
        decode_ms = end - preload_end_ms
        return {
            "tokens": float(tokens),
            "context_len": float(context_len),
            "decode_ms": decode_ms,
            "ms_per_token": decode_ms / tokens,
            "segments": float(len(breaks)),
            "replayed_tokens": float(core.replayed),
            "kv_resident_bytes": float(final_kv),
            "kv_budget_bytes": float(kv_plan.budget_bytes),
            "kv_spilled_bytes": float(
                max(0, (context_len + tokens) * kv_plan.token_bytes - final_kv)
            ),
            "kv_texture": float(kv_plan.texture),
        }

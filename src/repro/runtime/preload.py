"""Preloading executor: the baselines' cold-start init + execute pipeline.

Implements the strategy every existing framework uses (paper §1): load the
whole model disk -> unified memory, transform every weight into texture
memory with dedicated kernels, then run inference with all weights resident.
Latency and memory come out of the shared simulator mechanically; the
framework profile only sets throughput/copy characteristics.  Init stages
every weight through the segment core's :func:`~repro.runtime.segment.stage_weights`
(the same columnar routine FlashMem preloads its set W with).  With every
weight resident, execution is a pure-compute pass through the shared
segment core (:mod:`repro.runtime.segment`), which replays steady-state
passes and decode tokens exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.graph.dag import Graph
from repro.graph.ops import OpKind
from repro.gpusim.device import DeviceProfile
from repro.gpusim.engine import Simulation
from repro.gpusim import pricing
from repro.runtime.frameworks import FrameworkProfile
from repro.runtime.scenario import Scenario
from repro.runtime.segment import (
    SegmentCore,
    attention_index,
    stage_weights,
    weight_columns,
    weight_rows,
)


class ModelNotSupportedError(Exception):
    """The framework cannot run this model (Table 7 '-' entries)."""


class PreloadExecutor:
    """Cold-start preloading runtime parameterised by a framework profile."""

    def __init__(self, profile: FrameworkProfile, device: DeviceProfile) -> None:
        self.profile = profile
        self.device = device

    def run(
        self,
        graph: Graph,
        *,
        scenario: Optional[Scenario] = None,
        check_support: bool = True,
        raise_on_oom: bool = False,
    ):
        """Simulate init + the workload described by ``scenario`` (default:
        one prefill pass).

        ``Scenario.prefill(n)`` runs ``n`` full passes with every weight
        resident.  ``Scenario.decode(...)`` runs autoregressive generation
        the way every preloading framework does it: the *entire* KV cache
        stays in unified memory and grows without bound — faster attention
        reads than FlashMem's disk-streamed tiles, but linear memory growth
        that OOMs long contexts (the Table 1 story, decode edition).

        Returns a :class:`~repro.gpusim.timeline.RunResult`; ``result.oom``
        situations set ``details['oom'] = 1`` (and raise when requested).
        """
        scenario = scenario or Scenario.prefill()
        profile = self.profile
        if check_support and not profile.supports(graph.name):
            raise ModelNotSupportedError(f"{profile.name} does not support {graph.name}")
        graph.freeze()
        sim = Simulation(self.device, model=graph.name, runtime=profile.name)
        core = SegmentCore(sim, graph)
        init_end = self._init(sim, graph)
        durations = self._durations(graph, core.nodes)
        if scenario.is_decode:
            details = self._decode(core, graph, scenario, durations, init_end)
        else:
            iterations = scenario.iterations
            core.run_segment(0, iterations, durations, "i")
            details = {
                "iterations": float(iterations),
                "init_ms": init_end,
                "exec_per_iter_ms": core.exec_total / max(1, iterations),
                "replayed_iterations": float(core.replayed),
            }
        return core.finish(details, raise_on_oom=raise_on_oom)

    def _init(self, sim: Simulation, graph: Graph) -> float:
        """GPU setup, load + transform every weight, and the runtime arena;
        returns the time execution can start."""
        profile, device = self.profile, self.device
        io, gpu = sim.queues.io, sim.queues.gpu

        # ---- GPU context / program setup -------------------------------
        sim.alloc_um("process_baseline", int(profile.baseline_mb * 1e6), 0.0)
        setup_start, setup_end = gpu.submit_fast(
            "gpu_setup", device.gpu_setup_ms * profile.setup_ms_factor, kind="setup"
        )
        sim.phases.setup = setup_end - setup_start

        # ---- Init: load + transform every weight ------------------------
        # The serialized model file stays mapped while it is parsed and
        # copied out (freed once the last tensor has loaded) — this is the
        # init-time transient that makes Table 1's peaks ~3x the weights and
        # OOMs big models on 6-8 GB devices (Figure 10).
        sim.alloc_um("model_file_buffer", graph.total_weight_bytes, setup_start)
        staging_factor = 2 if profile.fp32_staging else 1
        load_bw = device.disk_bw * profile.load_bw_factor
        transform_bw = device.tm_upload_bw * profile.transform_bw_factor
        rows = weight_rows(graph)
        weights = weight_columns(rows, list(rows))
        nbytes = weights.nbytes
        transform_ms = None
        if profile.uses_texture:
            transform_ms = (
                device.kernel_launch_ms + profile.per_tensor_transform_ms + nbytes / transform_bw
            )
        stage_weights(
            sim,
            weights,
            device.disk_latency_ms + nbytes / load_bw,
            transform_ms,
            um_bytes=nbytes * staging_factor,
            free_um=not profile.keep_um_copy and not profile.free_um_at_init_end,
        )
        # The mapped file coexists with the last tensor copied out of it for
        # an instant — a genuine double-residency transient (Table 1's ~3x
        # init peaks), not an exchange, so the free integrates after the
        # same-timestamp allocation.
        sim.free_um("model_file_buffer", io.free_at, after_allocs=True)
        init_end = sim.queues.makespan_ms
        if profile.free_um_at_init_end and not profile.keep_um_copy:
            # Staging kept every UM copy live for this batch free.
            for name in rows:
                sim.free_um(name, init_end)
        sim.phases.load = io.busy_time_ms(kind="load")
        sim.phases.transform = gpu.busy_time_ms(kind="transform")

        # ---- Runtime arena (graph runtime, workspaces, activations) -----
        overhead = int(
            graph.total_weight_bytes * profile.mem_overhead_factor + profile.arena_fixed_mb * 1e6
        )
        activations = graph.peak_activation_bytes()
        if profile.fp32_staging:
            activations *= 2
        arena_time = setup_end if profile.arena_at_start else init_end
        sim.alloc_um("runtime_arena", overhead + activations, arena_time)
        return init_end

    def _durations(self, graph: Graph, nodes: list) -> List[float]:
        """Per-node kernel latencies at the framework's efficiencies: one
        vectorized table."""
        conv_eff = self.profile.conv_exec_efficiency
        eff = self.profile.exec_efficiency

        def efficiency(node) -> float:
            return conv_eff if node.kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D) else eff

        # Pure function of the frozen graph and the profile efficiencies,
        # so the rows are memoized on the graph across runs.
        rows = graph._frozen_aggregate(
            ("pricing-rows", conv_eff, eff),
            lambda: tuple(
                pricing.spec_row(node.spec, efficiency=efficiency(node)) for node in nodes
            ),
        )
        return pricing.kernel_time_table(self.device, rows).tolist()

    def _decode(
        self,
        core: SegmentCore,
        graph: Graph,
        scenario: Scenario,
        durations: List[float],
        init_end: float,
    ) -> Dict[str, float]:
        """Preloading decode: the whole KV cache is unified-memory resident
        (no texture staging, no spilling).  Attention reads every cached
        tile from UM at the framework's kernel efficiency; the cache grows
        by one row pair per cache per token, unboundedly — the linear-memory
        failure mode FlashMem's residency cap is designed around.
        """
        attention = attention_index(graph)
        tiles = {k.tile_tokens for k in attention.kernels}
        if len(tiles) != 1:
            raise ValueError(f"mixed attention tile sizes in {graph.name!r}: {sorted(tiles)}")
        tile = tiles.pop()
        context_len, tokens = scenario.context_len, scenario.tokens
        token_bytes = graph.kv_bytes_per_token()
        sim = core.sim
        if context_len > 0:
            sim.log_memory([init_end], [context_len * token_bytes])
        # Per-token cost only changes when the cache crosses a tile boundary
        # (all tiles are priced full): token t opens a new tile exactly when
        # context_len + t is a multiple of the tile size.
        breaks = [0] + list(range(tile - context_len % tile, tokens, tile))
        core.run_decode(
            attention,
            durations,
            context_len,
            tokens,
            breaks,
            resident_tiles=None,
            texture=False,
            efficiency=self.profile.exec_efficiency,
        )
        end = sim.queues.makespan_ms
        total_kv = (context_len + tokens) * token_bytes
        if total_kv:
            sim.log_memory([end], [-total_kv])
        decode_ms = end - init_end
        return {
            "tokens": float(tokens),
            "context_len": float(context_len),
            "init_ms": init_end,
            "decode_ms": decode_ms,
            "ms_per_token": decode_ms / tokens,
            "kv_bytes": float(total_kv),
            "replayed_tokens": float(core.replayed),
        }

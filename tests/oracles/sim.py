"""Simulator oracles: scalar pricing, every-pass simulation, the sorting
merge, and the list-walking timeline queries.

The executors' fast paths must reproduce these bit for bit:

- :func:`kernel_program_time_ms` — one rewritten kernel priced by the
  scalar :class:`~repro.gpusim.kernels.KernelCostModel`, BRANCHY kernels
  with embedded loads paying the divergence factor on their whole body.
  :func:`scalar_kernel_time_table` prices each
  :data:`~repro.gpusim.pricing.KernelRow` the same way; swapped in for
  ``pricing.kernel_time_table`` it turns a whole run into per-kernel scalar
  pricing.
- :func:`flash_attention_time_ms` — one tiled decode-attention call, and
  :func:`scalar_flash_attention_time_table` its per-row table, swapped in
  for ``pricing.flash_attention_time_table``.
- :func:`run_segment_every_pass` — :meth:`SegmentCore.run_segment` without
  record/replay: every pass simulated node by node.  Swapped in for
  ``SegmentCore.run_segment``.
- :func:`replay_reference` — the scalar replay loop, one instruction at a
  time; the columnar :meth:`SegmentCore._replay` must match it bit for bit.
- :func:`preload_every_weight` and :func:`init_every_weight` — FlashMem's
  preload of its set W and a preloading baseline's init, one weight at a
  time through ``submit_fast`` and the pool-checked ``alloc_*``/``free_*``
  calls.  Swapped in for ``FlashMemExecutor._preload`` and
  ``PreloadExecutor._init``; the shared columnar
  :func:`~repro.runtime.segment.stage_weights` must leave the same queue
  columns, busy totals, live pool maps and timeline.
- :func:`busy_intervals_reference` — merges any event list by sorting;
  :meth:`CommandQueue.busy_intervals` must return the identical list.
- :func:`peak_bytes_reference`, :func:`usage_at_reference` and
  :func:`average_bytes_reference` — the step-function queries walked over
  a ``(time, bytes)`` row list, as the timeline answered them before it
  kept columns.  :class:`~repro.gpusim.timeline.MemoryTimeline`'s numpy
  queries must return the identical ``int``/``float``.

The executors look every swapped name up at call time, so a
``monkeypatch.setattr`` of the module or class attribute is the seam.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.kernels import (
    BRANCH_DIVERGENCE_PENALTY,
    UM_KV_BW_FACTOR,
    FlashAttentionKernel,
    KernelCostModel,
)
from repro.graph.ops import OpClass
from repro.kernels.codegen import ExecStyle
from repro.runtime import segment
from repro.runtime.executor import FLASHMEM_BASELINE_MB


class _RowOp(NamedTuple):
    """The operator fields :class:`KernelCostModel` reads, from a row."""

    op_class: OpClass
    flops: int
    bytes_moved: int
    output_bytes: int


def _loaded_time_ms(cost: KernelCostModel, op, extra_bytes: int, efficiency: float,
                    divergent: bool) -> float:
    base = cost.time_with_load_ms(op, extra_bytes, efficiency=efficiency)
    if divergent and extra_bytes > 0:
        return base * (1.0 + BRANCH_DIVERGENCE_PENALTY)
    return base


def kernel_program_time_ms(program, device, *, efficiency: float = 1.0) -> float:
    """Latency of one :class:`~repro.kernels.codegen.KernelProgram`.

    Pipelined kernels pay the interference model's (mostly hidden)
    embedded-load cost; branchy kernels additionally pay the divergence
    penalty on their whole body.
    """
    return _loaded_time_ms(
        KernelCostModel(device),
        program.op,
        program.embedded_load_bytes,
        efficiency,
        program.style is ExecStyle.BRANCHY,
    )


def scalar_kernel_time_table(device, rows: Sequence[tuple]) -> np.ndarray:
    """``pricing.kernel_time_table`` priced one scalar call per row."""
    cost = KernelCostModel(device)
    return np.array(
        [
            _loaded_time_ms(cost, _RowOp(op_class, flops, moved, out_bytes), extra, eff, divergent)
            for op_class, flops, moved, out_bytes, extra, eff, divergent in rows
        ],
        dtype=np.float64,
    )


def flash_attention_time_ms(
    kernel: FlashAttentionKernel,
    device,
    kv_tokens: int,
    *,
    resident_tiles: int = None,
    texture: bool = True,
    efficiency: float = 1.0,
) -> float:
    """Latency of one decode-attention call over ``kv_tokens`` rows.

    ``resident_tiles=None`` keeps the whole cache resident (the preloading
    baselines); otherwise the oldest ``n - resident_tiles`` tiles stream
    from disk.  ``texture`` selects the resident read path (texture cache
    vs :data:`UM_KV_BW_FACTOR`-degraded unified memory).
    """
    if efficiency <= 0:
        raise ValueError("efficiency must be positive")
    if kv_tokens <= 0:
        raise ValueError("kv_tokens must be positive")
    n = -(-kv_tokens // kernel.tile_tokens)
    if resident_tiles is None:
        r = n
    elif resident_tiles < 0:
        raise ValueError("resident_tiles must be non-negative")
    else:
        r = min(n, resident_tiles)
    s = n - r
    tile_bytes = 2 * kernel.heads * kernel.head_dim * kernel.tile_tokens * kernel.dtype_bytes
    tile_flops = 4 * kernel.heads * kernel.head_dim * kernel.tile_tokens
    t_compute = device.compute_time_ms(tile_flops) / efficiency
    t_resident = device.memory_time_ms(tile_bytes) / efficiency
    if not texture:
        t_resident = t_resident / UM_KV_BW_FACTOR
    t_stream = device.disk_latency_ms + tile_bytes / device.disk_bw
    # Streamed (oldest) tiles run first; the pipeline fill exposes the
    # first tile's fetch, every later fetch hides behind compute.
    fill = t_stream if s > 0 else t_resident
    steady = s * max(t_compute, t_stream) + r * max(t_compute, t_resident)
    return device.kernel_launch_ms + fill + steady


def scalar_flash_attention_time_table(device, rows: Sequence[tuple]) -> np.ndarray:
    """``pricing.flash_attention_time_table`` priced one scalar call per row."""
    return np.array(
        [
            flash_attention_time_ms(
                FlashAttentionKernel(heads, head_dim, tile_tokens, dtype_bytes),
                device,
                kv_tokens,
                resident_tiles=None if resident < 0 else resident,
                texture=texture,
                efficiency=eff,
            )
            for heads, head_dim, tile_tokens, dtype_bytes, kv_tokens, resident, texture, eff
            in rows
        ],
        dtype=np.float64,
    )


def run_segment_every_pass(core, start, end, durations, tag_prefix,
                           kv_append=segment._NO_APPEND) -> None:
    """:meth:`SegmentCore.run_segment` simulating passes ``start..end-1``
    node by node, none recorded or replayed."""
    for k in range(start, end):
        core._pass(k, f"{tag_prefix}{k}:", durations, kv_append, False)


def replay_reference(core, trace, start_it, iterations, tag_prefix) -> None:
    """The scalar replay loop: :meth:`SegmentCore._replay` re-executing the
    instruction ``trace`` recorded by :meth:`SegmentCore._pass` one
    instruction at a time, every queue row its own.

    ``SegmentCore._replay(segment._columns(trace), ...)`` must leave the queues'
    clocks, busy totals and busy intervals, ``exec_total``/``stall_total``
    and the memory timeline bitwise where this loop does.
    """
    sim = core.sim
    stall_total, exec_total = core.stall_total, core.exec_total
    nslots = len(core._slots)
    io, gpu = sim.queues.io, sim.queues.gpu
    io_labels, io_starts, io_ends, io_kinds = io.replay_columns()
    gpu_labels, gpu_starts, gpu_ends, gpu_kinds = gpu.replay_columns()
    io_free, io_busy, io_kind_tot = io.clock_state()
    gpu_free, gpu_busy, gpu_kind_tot = gpu.clock_state()
    io_load = io_kind_tot.get("load", 0.0)
    gpu_compute = gpu_kind_tot.get("compute", 0.0)
    gpu_transform = gpu_kind_tot.get("transform", 0.0)
    mem_times, mem_amounts = [], []

    for rep_it in range(start_it, iterations):
        rtag = f"{tag_prefix}{rep_it}:"
        um_slot = [0.0] * nslots
        for ins in trace:
            code = ins[0]
            if code == segment._OP_EXEC:
                _, dur, nb_slots, seg_ops, tex_frees, suffix = ins
                nb = 0.0
                for s in nb_slots:
                    ready = um_slot[s]
                    if ready > nb:
                        nb = ready
                if nb > gpu_free:
                    stall_total += nb - gpu_free
                    start = nb
                else:
                    start = gpu_free
                end = start + dur
                gpu_free = end
                busy = end - start
                exec_total += busy
                gpu_busy += busy
                gpu_compute += busy
                gpu_labels.append(rtag + suffix)
                gpu_starts.append(start)
                gpu_ends.append(end)
                gpu_kinds.append("compute")
                for seg_bytes, um_freed in seg_ops:
                    mem_times.append(end)
                    mem_amounts.append(seg_bytes)
                    if um_freed:
                        mem_times.append(end)
                        mem_amounts.append(-um_freed)
                for size in tex_frees:
                    mem_times.append(end)
                    mem_amounts.append(-size)
            elif code == segment._OP_LOAD:
                _, s, dur, nbytes, suffix = ins
                start = io_free if io_free > gpu_free else gpu_free
                end = start + dur
                io_free = end
                busy = end - start
                io_busy += busy
                io_load += busy
                io_labels.append(rtag + suffix)
                io_starts.append(start)
                io_ends.append(end)
                io_kinds.append("load")
                um_slot[s] = end
                mem_times.append(end)
                mem_amounts.append(nbytes)
            else:  # _OP_XFORM
                _, s, dur, suffix = ins
                nb = um_slot[s]
                start = gpu_free if gpu_free > nb else nb
                end = start + dur
                gpu_free = end
                busy = end - start
                gpu_busy += busy
                gpu_transform += busy
                gpu_labels.append(rtag + suffix)
                gpu_starts.append(start)
                gpu_ends.append(end)
                gpu_kinds.append("transform")

    io_kind_tot["load"] = io_load
    gpu_kind_tot["compute"] = gpu_compute
    gpu_kind_tot["transform"] = gpu_transform
    io.sync_clock(io_free, io_busy, io_kind_tot)
    gpu.sync_clock(gpu_free, gpu_busy, gpu_kind_tot)
    core.stall_total, core.exec_total = stall_total, exec_total
    sim.log_memory(mem_times, mem_amounts)


def preload_every_weight(executor, sim, plan, core) -> float:
    """``FlashMemExecutor._preload``: GPU setup, then each weight of the
    preloaded set W loaded and transformed on its own."""
    device = executor.device
    io, gpu = sim.queues.io, sim.queues.gpu
    sim.alloc_um("process_baseline", int(FLASHMEM_BASELINE_MB * 1e6), 0.0)
    setup_start, setup_end = gpu.submit_fast("gpu_setup", device.gpu_setup_ms, kind="setup")
    sim.phases.setup = setup_end - setup_start
    for name in plan.preloaded_weights:
        nbytes, tex_bytes, expansion = core.weights[name]
        _, load_end = io.submit_fast(
            f"preload:{name}", device.disk_latency_ms + nbytes / device.disk_bw, kind="load"
        )
        sim.alloc_um(name, nbytes, load_end)
        bw = device.tm_upload_bw * (segment.WINOGRAD_BW_FACTOR if expansion > 1.0 else 1.0)
        xform_start, xform_end = gpu.submit_fast(
            f"transform:{name}",
            device.kernel_launch_ms + nbytes / bw,
            load_end,
            "transform",
        )
        if expansion > 1.0:
            sim.alloc_um(f"{name}.winograd", int(nbytes * (expansion - 1.0)), xform_start)
            sim.free_um(f"{name}.winograd", xform_end)
        sim.alloc_tm(name + ".tex", tex_bytes, xform_end)
        sim.free_um(name, xform_end)
    sim.phases.load = io.busy_time_ms(kind="load")
    sim.phases.transform = gpu.busy_time_ms(kind="transform")
    return sim.queues.makespan_ms


def init_every_weight(executor, sim, graph) -> float:
    """``PreloadExecutor._init``: GPU setup, each weight loaded and
    transformed on its own, and the runtime arena."""
    profile, device = executor.profile, executor.device
    io, gpu = sim.queues.io, sim.queues.gpu
    sim.alloc_um("process_baseline", int(profile.baseline_mb * 1e6), 0.0)
    setup_start, setup_end = gpu.submit_fast(
        "gpu_setup", device.gpu_setup_ms * profile.setup_ms_factor, kind="setup"
    )
    sim.phases.setup = setup_end - setup_start
    sim.alloc_um("model_file_buffer", graph.total_weight_bytes, setup_start)
    staging_factor = 2 if profile.fp32_staging else 1
    load_bw = device.disk_bw * profile.load_bw_factor
    transform_bw = device.tm_upload_bw * profile.transform_bw_factor
    free_after_transform = not profile.keep_um_copy and not profile.free_um_at_init_end
    rows = segment.weight_rows(graph)
    for name, (nbytes, tex_bytes, expansion) in rows.items():
        _, load_end = io.submit_fast(
            f"load:{name}", device.disk_latency_ms + nbytes / load_bw, kind="load"
        )
        sim.alloc_um(name, nbytes * staging_factor, load_end)
        if profile.uses_texture:
            transform_time = (
                device.kernel_launch_ms + profile.per_tensor_transform_ms + nbytes / transform_bw
            )
            xform_start, xform_end = gpu.submit_fast(
                f"transform:{name}", transform_time, load_end, "transform"
            )
            if expansion > 1.0:
                scratch = int(nbytes * (expansion - 1.0))
                sim.alloc_um(f"{name}.winograd", scratch, xform_start)
                sim.free_um(f"{name}.winograd", xform_end)
            sim.alloc_tm(name + ".tex", tex_bytes, xform_end)
            if free_after_transform:
                sim.free_um(name, xform_end)
    sim.free_um("model_file_buffer", io.free_at, after_allocs=True)
    init_end = sim.queues.makespan_ms
    if profile.free_um_at_init_end and not profile.keep_um_copy:
        for name in rows:
            if name in sim.um.live_names():
                sim.free_um(name, init_end)
    sim.phases.load = io.busy_time_ms(kind="load")
    sim.phases.transform = gpu.busy_time_ms(kind="transform")
    overhead = int(
        graph.total_weight_bytes * profile.mem_overhead_factor + profile.arena_fixed_mb * 1e6
    )
    activations = graph.peak_activation_bytes()
    if profile.fp32_staging:
        activations *= 2
    arena_time = setup_end if profile.arena_at_start else init_end
    sim.alloc_um("runtime_arena", overhead + activations, arena_time)
    return init_end


def busy_intervals_reference(events, kinds=None) -> List[Tuple[float, float]]:
    """Merge an arbitrary :class:`QueueEvent` list into disjoint busy
    intervals (zero-duration events skipped), sorting first."""
    spans = sorted(
        (e.start_ms, e.end_ms)
        for e in events
        if e.duration_ms > 0 and (kinds is None or e.kind in kinds)
    )
    merged: List[Tuple[float, float]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def timeline_rows(timeline) -> List[Tuple[float, int]]:
    """A :class:`MemoryTimeline`'s columns as ``(time, bytes)`` rows."""
    return list(zip(timeline.times.tolist(), timeline.totals.tolist()))


def peak_bytes_reference(rows: Sequence[Tuple[float, int]]) -> int:
    return max(v for _, v in rows)


def usage_at_reference(rows: Sequence[Tuple[float, int]], time_ms: float) -> int:
    usage = 0
    for t, v in rows:
        if t > time_ms:
            break
        usage = v
    return usage


def average_bytes_reference(
    rows: Sequence[Tuple[float, int]], start_ms: float = 0.0, end_ms: Optional[float] = None
) -> float:
    """Time-weighted average over [start, end] as a left fold over the
    time-sorted ``rows``, clamped to the range attained in the window."""
    if end_ms is None:
        end_ms = rows[-1][0]
    if end_ms <= start_ms:
        return float(usage_at_reference(rows, start_ms))
    total = 0.0
    prev_t, prev_v = start_ms, usage_at_reference(rows, start_ms)
    vmin = vmax = prev_v
    for t, v in rows:
        if t <= start_ms:
            continue
        if t >= end_ms:
            break
        total += prev_v * (t - prev_t)
        prev_t, prev_v = t, v
        if v < vmin:
            vmin = v
        elif v > vmax:
            vmax = v
    total += prev_v * (end_ms - prev_t)
    average = total / (end_ms - start_ms)
    if average > vmax:
        return float(vmax)
    if average < vmin:
        return float(vmin)
    return average

"""The segment core: one per-node pass and one record/replay loop.

Every executor path simulates *segments*: runs of consecutive passes over
the graph whose simulation is a pure function of the clock offset.

- FlashMem prefill is one segment of ``iterations`` passes.
- Decode (FlashMem and the preloading baselines) is one segment per
  attention-tile interval: all tiles are priced full, so a token's cost
  only changes when the KV cache crosses a tile boundary.
- The preloading baselines' passes are pure compute (every weight is
  resident), so they run the same pass with no streaming indexes.

:meth:`SegmentCore.run_segment` simulates a segment node by node and
records passes 2 and 3 as instruction traces (the first can differ: a
run's first pass also loads and transforms dedicated conv weights).  When
the two traces match and every allocation made inside a pass is freed
inside it, the remaining passes replay the trace with the exact float
arithmetic of a full pass (same submits, same accumulator adds, same
delta-log appends), skipping only the per-node Python bookkeeping.  The
replay is *exact*, not approximate: ``RunResult``s are byte-identical to
simulating every pass (pinned by
``tests/runtime/test_extrapolation_equivalence.py`` and
``tests/runtime/test_decode_equivalence.py``, which swap the every-pass
reference in ``tests/oracles/sim.py`` in for :meth:`SegmentCore.run_segment`).
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.dag import Graph
from repro.graph.ops import OpKind
from repro.gpusim import pricing
from repro.gpusim.engine import Simulation
from repro.gpusim.kernels import FlashAttentionKernel
from repro.gpusim.memory import OutOfMemoryError
from repro.gpusim.texture import texture_bytes, winograd_expansion
from repro.opg.plan import OverlapPlan

#: Dedicated Winograd transforms run below the raw upload bandwidth
#: (gather/scatter access pattern).
WINOGRAD_BW_FACTOR = 0.5

#: Dedicated (non-embedded) chunk-copy kernels run strided, well below the
#: vectorised in-kernel path — what kernel rewriting buys back (Figure 7).
DEDICATED_COPY_BW_FACTOR = 0.35

# Trace instruction opcodes.
_OP_EXEC = 0
_OP_LOAD = 1
_OP_XFORM = 2

_NO_APPEND: Dict[int, int] = {}


class Attention(NamedTuple):
    """A decode graph's tiled-attention nodes and KV appends, by position."""

    positions: List[int]
    kernels: List[FlashAttentionKernel]
    #: Position of each KV_APPEND node -> bytes it appends per token.
    append: Dict[int, int]


def weight_rows(graph: Graph) -> Dict[str, Tuple[int, int, float]]:
    """Each weight's ``(nbytes, texture bytes, Winograd expansion)`` by
    name, in execution order.

    A pure function of the frozen graph, so one entry per graph serves
    every simulated run instead of re-deriving texture layouts per run.
    Weight names key the executors' allocations, so a repeated name is an
    error here rather than a silently merged row.
    """

    def rows() -> Dict[str, Tuple[int, int, float]]:
        weights = graph.weights()
        out = {
            weight.name: (
                weight.nbytes,
                texture_bytes(weight.tensor),
                winograd_expansion(node.kind, int(node.spec.attrs.get("kernel", 0))),
            )
            for weight, node in weights
        }
        if len(out) != len(weights):
            raise ValueError(f"{graph.name!r} repeats a weight name")
        return out

    return graph._frozen_aggregate("weight-rows", rows)


def attention_index(graph: Graph, nodes: Sequence) -> Attention:
    """Index ``graph``'s attention and KV-append nodes (decode graphs only)."""
    caches = {c.name: c for c in graph.kv_cache_specs()}
    attention = Attention([], [], {})
    for pos, node in enumerate(nodes):
        if node.kind is OpKind.FLASH_ATTENTION:
            attention.positions.append(pos)
            attention.kernels.append(FlashAttentionKernel.from_spec(node.spec))
        elif node.kind is OpKind.KV_APPEND:
            attention.append[pos] = caches[node.spec.attrs["kv_cache"]].token_bytes
    if not attention.positions:
        raise ValueError(
            f"decode scenario requires FLASH_ATTENTION nodes; {graph.name!r} has none"
        )
    return attention


class SegmentCore:
    """Simulates segments of passes over one graph on one :class:`Simulation`.

    ``plan`` supplies FlashMem's streaming indexes (disk loads at each
    weight's ``z_w`` layer, chunk transforms, texture frees); without one
    the pass is pure compute.  ``exec_total``/``stall_total`` accumulate
    across every segment in submit order, and ``replayed`` counts the
    passes replayed instead of simulated.
    """

    def __init__(
        self,
        sim: Simulation,
        graph: Graph,
        plan: Optional[OverlapPlan] = None,
        *,
        rewriting: bool = True,
    ) -> None:
        self.sim = sim
        self.rewriting = rewriting
        self.nodes = list(graph.nodes())
        self.exec_total = 0.0
        self.stall_total = 0.0
        self.replayed = 0
        self._wall0 = time.perf_counter()
        self._stats_before = pricing.STATS.snapshot()
        self._slots: Dict[str, int] = {}
        self.weights: Dict[str, Tuple[int, int, float]] = {}
        self.loads_by_layer: Dict[int, List[str]] = {}
        self.chunks_by_layer: Dict[int, List[tuple]] = {}
        self.dedicated = set()
        self.weight_nbytes: Dict[str, int] = {}
        self.sched_nbytes: Dict[str, int] = {}
        self.stream_load_ms: Dict[str, float] = {}
        # Per node: streamed (non-dedicated) weight chunks it consumes.
        self.consumers: List[tuple] = [()] * len(self.nodes)
        if plan is not None:
            self._index(graph, plan)

    def _index(self, graph: Graph, plan: OverlapPlan) -> None:
        """Index streamed weights by load layer and their transform
        segments (byte-exact) by host layer."""
        device = self.sim.device
        self.weights = weight_rows(graph)
        for name, sched in plan.schedules.items():
            if sched.preloaded:
                continue
            self.loads_by_layer.setdefault(sched.load_layer, []).append(name)
            for seg in sched.segments():
                self.chunks_by_layer.setdefault(seg.layer, []).append(
                    (name, seg.end_offset - seg.start_offset)
                )
        self.dedicated = {n for n, s in plan.schedules.items() if s.dedicated_transform}
        self.weight_nbytes = {n: self.weights[n][0] for n in plan.schedules}
        self.sched_nbytes = {n: s.nbytes for n, s in plan.schedules.items()}
        self.stream_load_ms = {
            name: device.disk_latency_ms + self.weight_nbytes[name] / device.disk_bw
            for names in self.loads_by_layer.values()
            for name in names
        }
        for pos, node in enumerate(self.nodes):
            items = []
            for weight_spec in node.weights:
                sched = plan.schedules.get(weight_spec.name)
                if sched is None or sched.preloaded or sched.dedicated_transform:
                    continue
                for seg in sched.segments():
                    items.append((weight_spec.name, seg.layer, seg.end_offset - seg.start_offset))
            self.consumers[pos] = tuple(items)

    # ------------------------------------------------------------- driving
    def run_segment(
        self,
        start: int,
        end: int,
        durations: Sequence[float],
        tag_prefix: str,
        kv_append: Dict[int, int] = _NO_APPEND,
    ) -> None:
        """Simulate passes ``start..end-1`` (global pass indices).

        ``durations`` holds each node's kernel latency for this segment;
        ``tag_prefix`` plus the pass index labels each pass's events;
        ``kv_append`` maps node positions to bytes appended to the resident
        KV cache at that kernel's completion.  Passes ``start+1`` and
        ``start+2`` are recorded; when their traces match the rest replay.
        """
        record = end - start > 3
        self._slots = {}
        traces = []
        k = start
        while k < end:
            recording = record and k - start in (1, 2)
            trace = self._pass(k, f"{tag_prefix}{k}:", durations, kv_append, recording)
            k += 1
            if recording:
                traces.append(trace)
                if len(traces) == 2:
                    if traces[0] is not None and traces[0] == traces[1]:
                        break
        if k < end:
            self.replayed += end - k
            self._replay(traces[1], k, end, tag_prefix)

    def run_decode(
        self,
        attention: Attention,
        durations: Sequence[float],
        context_len: int,
        tokens: int,
        breaks: Sequence[int],
        *,
        resident_tiles: Optional[int],
        texture: bool,
        efficiency: float = 1.0,
        cap_tokens: Optional[int] = None,
    ) -> None:
        """Decode ``tokens`` tokens as one segment per ``breaks`` interval.

        Attention is priced once per segment, at the segment's first token
        (only the tile count prices), and folded into the segment's
        duration list.  KV appends apply while the resident cache is below
        ``cap_tokens`` (None: it grows without bound).  The cap falls on a
        tile boundary, so growth is constant within a segment.
        """
        device = self.sim.device
        flash_args = dict(resident_tiles=resident_tiles, texture=texture, efficiency=efficiency)
        for si, seg_start in enumerate(breaks):
            seg_end = breaks[si + 1] if si + 1 < len(breaks) else tokens
            kv = context_len + seg_start + 1
            rows = tuple(pricing.flash_row(k, kv, **flash_args) for k in attention.kernels)
            priced = pricing.flash_attention_time_table(device, rows).tolist()
            durs = list(durations)
            for pos, dur in zip(attention.positions, priced):
                durs[pos] = dur
            growing = cap_tokens is None or context_len + seg_start < cap_tokens
            self.run_segment(
                seg_start, seg_end, durs, "t", attention.append if growing else _NO_APPEND
            )

    def finish(self, details: Dict[str, float], *, raise_on_oom: bool = False):
        """Release everything, fold run counters into ``details``, and
        return the :class:`~repro.gpusim.timeline.RunResult`."""
        sim = self.sim
        sim.phases.execute = self.exec_total
        sim.free_all(sim.queues.makespan_ms)
        stats = pricing.STATS
        pricing_delta = stats.delta_since(self._stats_before)
        wall = time.perf_counter() - self._wall0
        stats.runs += 1
        stats.sim_s += wall
        stats.replayed_iterations += self.replayed
        details["sim_s"] = wall
        details["pricing_hits"] = float(pricing_delta["table_hits"])
        details["pricing_misses"] = float(pricing_delta["table_misses"])
        if sim.oom:
            details["oom"] = 1.0
            if raise_on_oom:
                peak = sim.build_timeline().peak_bytes
                raise OutOfMemoryError(0, peak, sim.device.ram_budget_bytes)
        return sim.finish(details=details)

    # --------------------------------------------------------------- passes
    def _slot(self, name: str) -> int:
        """The replay slot of weight ``name``, numbered per segment."""
        slots = self._slots
        s = slots.get(name)
        if s is None:
            s = slots[name] = len(slots)
        return s

    def _pass(
        self,
        k: int,
        tag: str,
        durations: Sequence[float],
        kv_append: Dict[int, int],
        recording: bool,
    ) -> Optional[tuple]:
        """Simulate pass ``k`` node by node.

        When ``recording``, returns the pass's instruction trace, or None
        if the pass is not alloc/free balanced (and so cannot replay).
        """
        sim = self.sim
        device = sim.device
        io, gpu = sim.queues.io, sim.queues.gpu
        deltas_append = sim.raw_deltas().append
        loads_by_layer, chunks_by_layer = self.loads_by_layer, self.chunks_by_layer
        dedicated, weight_nbytes = self.dedicated, self.weight_nbytes
        consumers, rewriting = self.consumers, self.rewriting
        exec_total, stall_total = self.exec_total, self.stall_total
        trace: Optional[list] = [] if recording else None
        alloc_names = set() if recording else None
        free_names = set() if recording else None
        um_ready: Dict[str, float] = {}
        transformed: Dict[str, int] = {}
        for pos, node in enumerate(self.nodes):
            idx = node.index
            # 1) Issue disk loads whose z_w is this layer, once the GPU
            #    reaches it.  Dedicated conv weights keep their cached
            #    texture after the first pass, so they are neither reloaded
            #    nor re-transformed.
            for name in loads_by_layer.get(idx, ()):
                if k > 0 and name in dedicated:
                    continue
                nbytes = weight_nbytes[name]
                load_dur = self.stream_load_ms[name]
                _, load_end = io.submit_fast(f"{tag}load:{name}", load_dur, gpu.free_at, "load")
                um_ready[name] = load_end
                sim.alloc_um(tag + name, nbytes, load_end)
                if recording:
                    trace.append((_OP_LOAD, self._slot(name), load_dur, nbytes, f"load:{name}"))
                    alloc_names.add(tag + name)

            # 2) Dedicated Winograd transforms for conv weights used here
            #    (first pass only — the transformed texture persists).
            if k == 0 and dedicated:
                for weight_spec in node.weights:
                    name = weight_spec.name
                    if name not in dedicated:
                        continue
                    nbytes, tex_bytes, expansion = self.weights[name]
                    xform_start, xform_end = gpu.submit_fast(
                        f"{tag}winograd:{name}",
                        device.kernel_launch_ms
                        + nbytes / (device.tm_upload_bw * WINOGRAD_BW_FACTOR),
                        um_ready.get(name, 0.0),
                        "transform",
                    )
                    if expansion > 1.0:
                        scratch = int(nbytes * (expansion - 1.0))
                        sim.alloc_um(f"{tag}{name}.winograd", scratch, xform_start)
                        sim.free_um(f"{tag}{name}.winograd", xform_end)
                    sim.alloc_tm(f"{tag}{name}.tex", tex_bytes, xform_end)
                    sim.free_um(f"{tag}{name}", xform_end)

            # 3) The layer's transform chunks.
            chunks = chunks_by_layer.get(idx, ())
            not_before = 0.0
            nb_slots: tuple = ()
            if chunks:
                for chunk_weight, _nbytes in chunks:
                    ready = um_ready.get(chunk_weight, 0.0)
                    if ready > not_before:
                        not_before = ready
                if not rewriting:
                    # OPG-only mode: dedicated data-loading kernels (strided
                    # copies, no compute to hide behind).
                    for chunk_weight, chunk_bytes in chunks:
                        xdur = device.kernel_launch_ms + chunk_bytes / (
                            device.tm_upload_bw * DEDICATED_COPY_BW_FACTOR
                        )
                        gpu.submit_fast(
                            f"{tag}xform:{chunk_weight}@{idx}",
                            xdur,
                            um_ready.get(chunk_weight, 0.0),
                            "transform",
                        )
                        if recording:
                            slot = self._slot(chunk_weight)
                            trace.append((_OP_XFORM, slot, xdur, f"xform:{chunk_weight}@{idx}"))
                    not_before = 0.0  # transforms already serialized the wait
                elif recording:
                    nb_slots = tuple(self._slot(w) for w, _nbytes in chunks)

            # 4) The layer kernel (with embedded chunks when rewriting).
            duration = durations[pos]
            if not_before > gpu.free_at:
                stall_total += not_before - gpu.free_at
            start, end = gpu.submit_fast(f"{tag}exec:{node.name}", duration, not_before, "compute")
            exec_total += end - start

            # 5) Chunk bookkeeping: texture bytes appear as the kernel
            #    finishes; the UM copy frees after the last chunk.
            seg_ops: Optional[list] = [] if recording else None
            for chunk_weight, chunk_bytes in chunks:
                sim.alloc_tm(f"{tag}{chunk_weight}.tex.{idx}", chunk_bytes, end)
                total_transformed = transformed.get(chunk_weight, 0) + chunk_bytes
                transformed[chunk_weight] = total_transformed
                um_freed = 0
                if total_transformed >= self.sched_nbytes[chunk_weight]:
                    sim.free_um(tag + chunk_weight, end)
                    um_freed = weight_nbytes[chunk_weight]
                if recording:
                    alloc_names.add(f"{tag}{chunk_weight}.tex.{idx}")
                    if um_freed:
                        free_names.add(tag + chunk_weight)
                    seg_ops.append((chunk_bytes, um_freed))

            # KV growth: one appended row pair per cache, applied at the
            # append kernel's completion.  Raw deltas bypass the pools; the
            # replay re-applies them from the trace (they ride in seg_ops,
            # whose replay form is identical).
            kvd = kv_append.get(pos)
            if kvd is not None:
                deltas_append((end, kvd, 0))
                if recording:
                    seg_ops.append((kvd, 0))

            # 6) Streamed weights consumed by this kernel are done: free
            #    their texture copies.  Winograd-transformed convolution
            #    weights stay cached — re-deriving the transform is costlier
            #    than the texture it occupies (this is why conv models save
            #    less memory, paper §5.2).
            consumed = consumers[pos]
            for wname, seg_layer, _size in consumed:
                sim.free_tm(f"{tag}{wname}.tex.{seg_layer}", end)
                if recording:
                    free_names.add(f"{tag}{wname}.tex.{seg_layer}")

            if recording:
                trace.append(
                    (
                        _OP_EXEC,
                        duration,
                        nb_slots,
                        tuple(seg_ops),
                        tuple(size for _w, _l, size in consumed),
                        f"exec:{node.name}",
                    )
                )
        self.exec_total, self.stall_total = exec_total, stall_total
        if recording and alloc_names == free_names:
            return tuple(trace)
        return None

    # --------------------------------------------------------------- replay
    def _replay(self, trace: tuple, start_it: int, iterations: int, tag_prefix: str) -> None:
        """Re-execute ``trace`` for passes ``start_it..iterations-1``.

        Performs the exact float arithmetic of a full pass (same submits,
        same accumulator adds, same delta-log appends in the same order) on
        local variables and raw queue columns, skipping only the per-node
        Python bookkeeping that cannot affect the result: dict indexing,
        ``MemoryPool`` membership updates (the trace is alloc/free balanced,
        so pools end each pass exactly as they started), and re-pricing.

        Pure-compute traces (every instruction an ``_OP_EXEC`` with no
        upstream IO dependency — fully-preloaded models, steady decode
        segments, and the preloading baselines) take a vectorized bulk
        path: the GPU clock is a strict left-fold of durations, which
        ``np.add.accumulate`` reproduces bitwise.
        """
        if all(ins[0] == _OP_EXEC and not ins[2] for ins in trace):
            self._replay_bulk(trace, start_it, iterations, tag_prefix)
            return
        sim = self.sim
        stall_total, exec_total = self.stall_total, self.exec_total
        nslots = len(self._slots)
        io, gpu = sim.queues.io, sim.queues.gpu
        io_labels, io_starts, io_ends, io_kinds = io.replay_columns()
        gpu_labels, gpu_starts, gpu_ends, gpu_kinds = gpu.replay_columns()
        io_free, io_busy, io_kind_tot = io.clock_state()
        gpu_free, gpu_busy, gpu_kind_tot = gpu.clock_state()
        io_load = io_kind_tot.get("load", 0.0)
        gpu_compute = gpu_kind_tot.get("compute", 0.0)
        gpu_transform = gpu_kind_tot.get("transform", 0.0)
        deltas_append = sim.raw_deltas().append

        for rep_it in range(start_it, iterations):
            rtag = f"{tag_prefix}{rep_it}:"
            um_slot = [0.0] * nslots
            for ins in trace:
                code = ins[0]
                if code == _OP_EXEC:
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
                        deltas_append((end, seg_bytes, 0))
                        if um_freed:
                            deltas_append((end, -um_freed, 0))
                    for size in tex_frees:
                        deltas_append((end, -size, 0))
                elif code == _OP_LOAD:
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
                    deltas_append((end, nbytes, 0))
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
        self.stall_total, self.exec_total = stall_total, exec_total

    def _replay_bulk(self, trace: tuple, start_it: int, iterations: int, tag_prefix: str) -> None:
        """Vectorized replay of a pure-compute trace (``_replay``'s fast path).

        With no IO dependencies every kernel starts the instant the GPU
        frees, so the event times are the strict left-fold
        ``end_i = end_{i-1} + dur_i`` — exactly what ``np.add.accumulate``
        computes (unlike ``np.sum``/``cumsum``'s pairwise trees, ufunc
        accumulation is the sequential recurrence, so every intermediate is
        bitwise what the scalar loop produces).  The busy/exec accumulators
        are folded the same way, seeded with their running values.  Memory
        deltas attach to the precomputed end times column-by-column; the
        timeline integration lexsorts the whole log, so append order does
        not affect the result.

        The event log gets ONE coalesced row for the whole replay instead of
        ``reps * k`` per-kernel rows.  This is observability-lossy (no
        per-kernel labels for the replayed span) but result-exact: nothing
        in a :class:`RunResult` reads labels, the busy accumulators are
        synced from the folds above, and ``busy_intervals`` — the energy
        model's only column consumer — merges the back-to-back kernel rows
        into exactly the ``(gpu_free, ends[-1])`` span this row spells out
        (zero-duration kernels never advance the clock, so coverage is
        contiguous either way; an all-zero replay span is skipped by the
        merge in both representations).
        """
        sim = self.sim
        reps = iterations - start_it
        k = len(trace)
        gpu = sim.queues.gpu
        gpu_labels, gpu_starts, gpu_ends, gpu_kinds = gpu.replay_columns()
        gpu_free, gpu_busy, gpu_kind_tot = gpu.clock_state()
        gpu_compute = gpu_kind_tot.get("compute", 0.0)

        durs = np.tile(np.array([ins[1] for ins in trace], dtype=np.float64), reps)
        ends = np.add.accumulate(np.concatenate(([gpu_free], durs)))[1:]
        starts = np.concatenate(([gpu_free], ends[:-1]))
        busies = ends - starts
        self.exec_total = float(np.add.accumulate(np.concatenate(([self.exec_total], busies)))[-1])
        gpu_busy = float(np.add.accumulate(np.concatenate(([gpu_busy], busies)))[-1])
        gpu_compute = float(np.add.accumulate(np.concatenate(([gpu_compute], busies)))[-1])

        gpu_starts.append(float(starts[0]))
        gpu_ends.append(float(ends[-1]))
        gpu_labels.append(f"{tag_prefix}{start_it}-{iterations - 1}:replay[{reps}x{k} kernels]")
        gpu_kinds.append("compute")

        deltas = sim.raw_deltas()
        ends_mat = ends.reshape(reps, k)
        for j, ins in enumerate(trace):
            if not ins[3] and not ins[4]:
                continue
            col = ends_mat[:, j].tolist()
            for seg_bytes, um_freed in ins[3]:
                deltas.extend((e, seg_bytes, 0) for e in col)
                if um_freed:
                    deltas.extend((e, -um_freed, 0) for e in col)
            for size in ins[4]:
                deltas.extend((e, -size, 0) for e in col)

        gpu_kind_tot["compute"] = gpu_compute
        gpu.sync_clock(float(ends[-1]), gpu_busy, gpu_kind_tot)

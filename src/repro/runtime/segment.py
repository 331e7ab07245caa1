"""The segment core: weight staging, one per-node pass and one columnar replay.

Every executor path simulates *segments*: runs of consecutive passes over
the graph whose simulation is a pure function of the clock offset.

- FlashMem prefill is one segment of ``iterations`` passes.
- Decode (FlashMem and the preloading baselines) is one segment per
  attention-tile interval: all tiles are priced full, so a token's cost
  only changes when the KV cache crosses a tile boundary.

Before the first segment, :func:`stage_weights` loads and transforms the
weights an executor keeps resident (FlashMem's preloaded set W, or every
weight of a preloading baseline) as columns: one accumulate for the IO
queue, one loop over floats for the GPU's ``max`` rule, then queue rows,
busy totals, memory rows and pool registrations in bulk.

:meth:`SegmentCore.run_segment` replays every pass of a pure-compute
segment (no streaming index: the preloading baselines, or a FlashMem plan
that preloads every weight) from a trace built from its durations and KV
appends.  A streaming segment records one pass node by node — its first,
or pass 1 when it starts at pass 0, the only pass that loads and
transforms dedicated conv weights — and, when that pass is alloc/free
balanced, replays the rest from its trace: every pass after pass 0 records
the same trace (``test_replay_core.py`` checks it over the model zoo).
:meth:`SegmentCore._replay` steps in Python only through a trace's event
points (disk loads, kernels waiting on a loaded chunk, OPG-only
transforms), each with its own ``max`` rule and stall accounting.  Each
run of dependency-free kernels between them is one ``np.add.accumulate``
(the sequential left fold, unlike ``np.sum``) into an end-time column,
from which the accumulators (by the same folds), queue rows and memory
rows follow, the last as whole columns of the delta log.  ``RunResult``s
are byte-identical to simulating every pass and staging every weight on
its own (``tests/runtime/test_extrapolation_equivalence.py``,
``test_decode_equivalence.py`` and ``test_staging.py`` swap in the
references from ``tests/oracles/sim.py``; ``test_replay_core.py`` checks
random traces against the scalar replay loop there).
"""

from __future__ import annotations

import time
from itertools import repeat
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

    positions: Tuple[int, ...]
    kernels: Tuple[FlashAttentionKernel, ...]
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


def attention_index(graph: Graph) -> Attention:
    """Index ``graph``'s attention and KV-append nodes (decode graphs only).

    A pure function of the frozen graph, memoized on it like
    :func:`weight_rows`: every decode run of either executor shares one
    index, so callers must not mutate it.
    """

    def build() -> Attention:
        caches = {c.name: c for c in graph.kv_cache_specs()}
        positions: List[int] = []
        kernels: List[FlashAttentionKernel] = []
        append: Dict[int, int] = {}
        for pos, node in enumerate(graph.nodes()):
            if node.kind is OpKind.FLASH_ATTENTION:
                positions.append(pos)
                kernels.append(FlashAttentionKernel.from_spec(node.spec))
            elif node.kind is OpKind.KV_APPEND:
                append[pos] = caches[node.spec.attrs["kv_cache"]].token_bytes
        if not positions:
            raise ValueError(
                f"decode scenario requires FLASH_ATTENTION nodes; {graph.name!r} has none"
            )
        return Attention(tuple(positions), tuple(kernels), append)

    return graph._frozen_aggregate("attention-index", build)


def build_stream_index(graph: Graph, plan: OverlapPlan) -> tuple:
    """``plan``'s streaming indexes over ``graph``: ``(loads_by_layer,
    chunks_by_layer, dedicated, weight_nbytes, sched_nbytes, consumers)``,
    the last holding per node the ``(weight, layer, bytes)`` streamed
    (non-dedicated) chunks it consumes.  Walks each schedule's segments once.

    Raises ValueError when ``plan`` has no schedule for some weight of
    ``graph`` (a plan solved for another graph).
    """
    weights = weight_rows(graph)
    missing = [name for name in weights if name not in plan.schedules]
    if missing:
        raise ValueError(
            f"plan for {plan.model!r} does not cover {len(missing)} weights "
            f"of {graph.name!r} (first: {missing[0]!r}) — was it solved for "
            "a different graph?"
        )
    loads_by_layer: Dict[int, List[str]] = {}
    chunks_by_layer: Dict[int, List[Tuple[str, int]]] = {}
    segments: Dict[str, List[Tuple[int, int]]] = {}
    for name, sched in plan.schedules.items():
        if sched.preloaded:
            continue
        loads_by_layer.setdefault(sched.load_layer, []).append(name)
        segments[name] = [(s.layer, s.end_offset - s.start_offset) for s in sched.segments()]
        for layer, nbytes in segments[name]:
            chunks_by_layer.setdefault(layer, []).append((name, nbytes))
    dedicated = frozenset(n for n, s in plan.schedules.items() if s.dedicated_transform)
    consumers = tuple(
        tuple((w.name, layer, nbytes) for w in node.weights
              if w.name in segments and w.name not in dedicated
              for layer, nbytes in segments[w.name])
        for node in graph.nodes()
    )
    return (loads_by_layer, chunks_by_layer, dedicated,
            {n: weights[n][0] for n in plan.schedules},
            {n: s.nbytes for n, s in plan.schedules.items()}, consumers)


def stream_index(graph: Graph, plan: OverlapPlan) -> tuple:
    """:func:`build_stream_index`, memoized on ``plan``, so the check that
    ``plan`` covers ``graph`` runs once per pair.  The memo holds the
    (frozen, so unchanging) graph it indexes and answers for that object
    only: another plan, or a rebuilt copy of the graph, builds its own."""
    memo = plan.__dict__.get("_stream_index")
    if memo is None or memo[0] is not graph:
        memo = plan.__dict__["_stream_index"] = (graph, build_stream_index(graph, plan))
    return memo[1]


def _columns(trace: tuple) -> tuple:
    """A :meth:`SegmentCore._pass` trace as :meth:`SegmentCore._replay`'s
    ``(durations, events, load_bytes, (delta_at, delta_bytes))``.

    GPU instructions (kernels, OPG-only transforms) are numbered in submit
    order.  An event ``(g, opcode, operand, duration)`` is a load of slot
    ``operand`` issued after the pass's first ``g`` GPU instructions, or
    instruction ``g``: a kernel waiting on slots ``operand`` or a transform
    waiting on one.  Memory delta ``j`` of a pass, ``delta_bytes[j]``,
    lands as GPU instruction ``delta_at[j]`` ends.
    """
    durations, events, load_bytes, delta_at, delta_bytes = [], [], [], [], []
    for ins in trace:
        g, code = len(durations), ins[0]
        if code != _OP_EXEC:
            events.append((g, code, ins[1], ins[2]))
            if code == _OP_LOAD:
                load_bytes.append(ins[3])
                continue
            durations.append(ins[2])
            continue
        _, dur, nb_slots, seg_ops, tex_frees, _suffix = ins
        if nb_slots:
            events.append((g, code, nb_slots, dur))
        for seg_bytes, um_freed in seg_ops:
            delta_bytes += (seg_bytes, -um_freed) if um_freed else (seg_bytes,)
        delta_bytes += [-size for size in tex_frees]
        delta_at += [g] * (len(delta_bytes) - len(delta_at))
        durations.append(dur)
    return (np.array(durations, dtype=np.float64), events, load_bytes,
            (delta_at, delta_bytes))


def _fold(seed: float, values: np.ndarray) -> float:
    """``seed + values[0] + values[1] + ...`` as the strict left fold."""
    return float(np.add.accumulate(np.concatenate(([seed], values)))[-1])


class WeightColumns(NamedTuple):
    """Weights in submit order: names plus their :func:`weight_rows`
    fields as columns."""

    names: List[str]
    nbytes: np.ndarray
    tex_bytes: np.ndarray
    expansion: np.ndarray


def weight_columns(rows: Dict[str, Tuple[int, int, float]], names: List[str]) -> WeightColumns:
    """The :func:`weight_rows` entries of ``names`` as columns."""
    picked = [rows[name] for name in names]
    nbytes, tex_bytes, expansion = zip(*picked) if picked else ((), (), ())
    return WeightColumns(names, np.array(nbytes, dtype=np.int64),
                         np.array(tex_bytes, dtype=np.int64),
                         np.array(expansion, dtype=np.float64))


def stage_weights(
    sim: Simulation,
    weights: WeightColumns,
    load_ms: np.ndarray,
    transform_ms: Optional[np.ndarray],
    *,
    um_bytes: np.ndarray,
    free_um: bool,
) -> None:
    """Stage ``weights`` before execution starts: one disk -> UM load each
    on the IO queue and, given ``transform_ms``, one UM -> texture transform
    each on the GPU queue, with the clocks, busy totals, memory rows and
    allocations that as many ``submit_fast``, ``alloc_*`` and ``free_*``
    calls would leave, added as columns (queue rows as
    :func:`_submit_spans` logs them).

    Loads wait on nothing, so they run back to back: their ends are one
    ``np.add.accumulate``.  Transform ``i`` starts at the later of the GPU
    clock and load ``i``'s end (the queue's ``max`` rule, one loop over
    floats).  Weight ``i``'s UM copy (``um_bytes[i]``) appears as its load
    ends; a Winograd weight (expansion > 1) holds ``nbytes * (expansion -
    1)`` bytes of scratch from its transform's start to its end, when its
    texture copy appears and, with ``free_um``, its UM copy goes.  Copies
    that stay live register in the pools in one update per pool; scratch,
    and a UM copy freed here, never reach them.
    """
    names = weights.names
    if not names:
        return
    io, gpu = sim.queues.io, sim.queues.gpu
    clock = np.add.accumulate(np.concatenate(([max(io.free_at, 0.0)], load_ms)))
    load_ends = clock[1:]
    _submit_spans(io, "stage", clock[:-1], load_ends, "load")
    times, amounts = [load_ends], [um_bytes]
    if transform_ms is None:
        sim.um.allocate_many(names, um_bytes.tolist())
    else:
        free = gpu.free_at
        starts = []
        for ready, duration in zip(load_ends.tolist(), transform_ms.tolist()):
            start = ready if ready > free else free
            starts.append(start)
            free = start + duration
        xform_starts = np.array(starts, dtype=np.float64)
        xform_ends = xform_starts + transform_ms
        _submit_spans(gpu, "stage", xform_starts, xform_ends, "transform")
        winograd = weights.expansion > 1.0
        scratch = (weights.nbytes[winograd] * (weights.expansion[winograd] - 1.0)).astype(np.int64)
        times += [xform_starts[winograd], xform_ends[winograd], xform_ends]
        amounts += [scratch, -scratch, weights.tex_bytes]
        sim.tm.allocate_many([name + ".tex" for name in names], weights.tex_bytes.tolist())
        if free_um:
            times.append(xform_ends)
            amounts.append(-um_bytes)
        else:
            sim.um.allocate_many(names, um_bytes.tolist())
    sim.log_memory(np.concatenate(times), np.concatenate(amounts))


class SegmentCore:
    """Simulates segments of passes over one graph on one :class:`Simulation`.

    ``plan`` supplies FlashMem's streaming indexes (disk loads at each
    weight's ``z_w`` layer, chunk transforms, texture frees); without one,
    or when the plan preloads every weight, the pass is pure compute.
    ``exec_total``/``stall_total`` accumulate across every segment in
    submit order, and ``replayed`` counts the passes replayed instead of
    simulated node by node.
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
        self.weights = weight_rows(graph) if plan is not None else {}
        (self.loads_by_layer, self.chunks_by_layer, self.dedicated, self.weight_nbytes,
         self.sched_nbytes, self.consumers) = (
            stream_index(graph, plan) if plan is not None
            else ({}, {}, frozenset(), {}, {}, ((),) * len(self.nodes))
        )
        #: Whether a pass can touch the IO queue (if not, every pass replays).
        self.streaming = bool(self.loads_by_layer or self.chunks_by_layer or self.dedicated)
        device = sim.device
        self.stream_load_ms = {
            name: device.disk_latency_ms + self.weight_nbytes[name] / device.disk_bw
            for names in self.loads_by_layer.values()
            for name in names
        }

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
        KV cache at that kernel's completion.  A pure-compute segment
        replays every pass.  A streaming one records pass ``start`` (pass 1
        when ``start`` is 0: only pass 0 runs the dedicated Winograd
        transforms) and replays the rest from its trace, unless the
        recorded pass is not alloc/free balanced.
        """
        if not self.streaming:
            if end > start:
                durs = np.array(durations, dtype=np.float64)
                if (durs < 0).any():
                    raise ValueError("duration must be non-negative")
                appends = (list(kv_append), list(kv_append.values()))
                self.replayed += end - start
                self._replay((durs, (), [], appends), start, end, tag_prefix)
            return
        record = start + 1 if start == 0 else start
        self._slots = {}
        trace = None
        k = start
        while k < end and trace is None:
            recording = k == record and k + 1 < end
            trace = self._pass(k, f"{tag_prefix}{k}:", durations, kv_append, recording)
            k += 1
        if k < end:
            self.replayed += end - k
            self._replay(_columns(trace), k, end, tag_prefix)

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
        Allocations and frees go through the pools one by one; their
        delta-log rows collect in two lists and go in as columns at the
        end.
        """
        sim = self.sim
        device = sim.device
        io, gpu = sim.queues.io, sim.queues.gpu
        um, tm = sim.um, sim.tm
        times: List[float] = []
        amounts: List[int] = []
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
                um.allocate(tag + name, nbytes)
                times.append(load_end)
                amounts.append(nbytes)
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
                        # Scratch lives only during the transform.
                        scratch = int(nbytes * (expansion - 1.0))
                        times += (xform_start, xform_end)
                        amounts += (scratch, -scratch)
                    tm.allocate(f"{tag}{name}.tex", tex_bytes)
                    times += (xform_end, xform_end)
                    amounts += (tex_bytes, -um.free(f"{tag}{name}"))

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
                tm.allocate(f"{tag}{chunk_weight}.tex.{idx}", chunk_bytes)
                times.append(end)
                amounts.append(chunk_bytes)
                total_transformed = transformed.get(chunk_weight, 0) + chunk_bytes
                transformed[chunk_weight] = total_transformed
                um_freed = 0
                if total_transformed >= self.sched_nbytes[chunk_weight]:
                    times.append(end)
                    amounts.append(-um.free(tag + chunk_weight))
                    um_freed = weight_nbytes[chunk_weight]
                if recording:
                    alloc_names.add(f"{tag}{chunk_weight}.tex.{idx}")
                    if um_freed:
                        free_names.add(tag + chunk_weight)
                    seg_ops.append((chunk_bytes, um_freed))

            # KV growth: one appended row pair per cache, applied at the
            # append kernel's completion.  The rows bypass the pools; the
            # replay re-applies them from the trace (they ride in seg_ops,
            # whose replay form is identical).
            kvd = kv_append.get(pos)
            if kvd is not None:
                times.append(end)
                amounts.append(kvd)
                if recording:
                    seg_ops.append((kvd, 0))

            # 6) Streamed weights consumed by this kernel are done: free
            #    their texture copies.  Winograd-transformed convolution
            #    weights stay cached — re-deriving the transform is costlier
            #    than the texture it occupies (this is why conv models save
            #    less memory, paper §5.2).
            consumed = consumers[pos]
            for wname, seg_layer, _size in consumed:
                times.append(end)
                amounts.append(-tm.free(f"{tag}{wname}.tex.{seg_layer}"))
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
        sim.log_memory(times, amounts)
        if recording and alloc_names == free_names:
            return tuple(trace)
        return None

    # --------------------------------------------------------------- replay
    def _replay(self, trace: tuple, start_it: int, iterations: int, tag_prefix: str) -> None:
        """Re-execute the columnar ``trace`` (see :func:`_columns`) for
        passes ``start_it..iterations-1``.

        Performs the float arithmetic of full passes (same submits, same
        accumulator adds in the same order, the same delta-log entries),
        skipping only what cannot change the result: per-node dict
        indexing, ``MemoryPool`` membership updates (a replayed trace is
        alloc/free balanced), re-pricing, and per-instruction queue rows.
        ``ends[k + 1]`` is GPU instruction ``k``'s end, ``ends[0]`` the clock
        before the replay.  It starts out holding the durations, so a
        dependency-free run accumulates in place from the end before it,
        and an event reads the clock at its own position, ``ends[k]``.
        """
        durations, events, load_bytes, (delta_at, delta_bytes) = trace
        n = len(durations)
        total = (iterations - start_it) * n
        if not total:
            return
        sim = self.sim
        io, gpu = sim.queues.io, sim.queues.gpu
        io_free = io.free_at
        gpu_free, gpu_busy, gpu_kinds = gpu.clock_state()
        ends = np.empty(total + 1)
        ends[0] = gpu_free
        ends[1:].reshape(-1, n)[:] = durations
        cells = ends.data  # the same buffer, read and written as plain floats
        stall_total, nslots = self.stall_total, len(self._slots)
        event_starts, load_starts, load_ends = [], [], []
        done = 0  # ends[:done + 1] are final
        for base in range(0, total, n):
            um_slot = [0.0] * nslots
            for g, code, arg, dur in events:
                k = base + g
                if k > done:
                    run = ends[done:k + 1]
                    np.add.accumulate(run, out=run)
                    done = k
                free = cells[k]
                if code == _OP_LOAD:
                    start = io_free if io_free > free else free
                    io_free = um_slot[arg] = start + dur
                    load_starts.append(start)
                    load_ends.append(io_free)
                    continue
                if code == _OP_EXEC:
                    nb = 0.0
                    for s in arg:
                        ready = um_slot[s]
                        if ready > nb:
                            nb = ready
                    if nb > free:
                        stall_total += nb - free
                        start = nb
                    else:
                        start = free
                else:  # _OP_XFORM
                    nb = um_slot[arg]
                    start = free if free > nb else nb
                cells[k + 1] = start + dur
                event_starts.append(start)
                done = k + 1
        run = ends[done:]
        np.add.accumulate(run, out=run)
        self.stall_total = stall_total

        # Accumulators, queue rows and memory deltas, from the columns.
        label = f"{tag_prefix}{start_it}-{iterations - 1}:replay"
        gpu_ends, gpu_starts = ends[1:], ends[:-1]
        if event_starts:
            gpu_starts = gpu_starts.copy()
            at = [g for g, code, _, _ in events if code != _OP_LOAD]
            gpu_starts[(np.arange(0, total, n)[:, None] + at).ravel()] = event_starts
        busies = gpu_ends - gpu_starts
        xform = np.zeros(n, dtype=bool)
        xform[[g for g, code, _, _ in events if code == _OP_XFORM]] = True
        passes = total // n
        xforms = np.tile(xform, passes)
        compute = busies[~xforms] if xform.any() else busies
        self.exec_total = _fold(self.exec_total, compute)
        gpu_kinds["compute"] = _fold(gpu_kinds.get("compute", 0.0), compute)
        if xform.any():
            gpu_kinds["transform"] = _fold(gpu_kinds.get("transform", 0.0), busies[xforms])
        gpu.sync_clock(cells[total], _fold(gpu_busy, busies), gpu_kinds)
        _append_spans(gpu, label, gpu_starts, gpu_ends, xforms, ("compute", "transform"))
        if delta_at:
            sim.log_memory(gpu_ends.reshape(passes, n)[:, delta_at].ravel(),
                           np.tile(np.array(delta_bytes, dtype=np.int64), passes))
        if load_ends:
            sim.log_memory(load_ends, load_bytes * passes)
            _submit_spans(io, label, np.array(load_starts), np.array(load_ends), "load")


def _submit_spans(queue, label: str, starts: np.ndarray, ends: np.ndarray, kind: str) -> None:
    """Add ``kind`` work items running ``starts[i]..ends[i]`` to the
    in-order ``queue`` as its ``submit_fast`` calls would: their busy times
    fold into its totals in submit order and its clock moves to the last
    end.  Rows are :func:`_append_spans`'s, labelled ``label``."""
    _, busy_total, by_kind = queue.clock_state()
    busies = ends - starts
    by_kind[kind] = _fold(by_kind.get(kind, 0.0), busies)
    queue.sync_clock(float(ends[-1]), _fold(busy_total, busies), by_kind)
    _append_spans(queue, label, starts, ends, np.zeros(len(starts), dtype=bool), (kind,))


def _append_spans(queue, label: str, starts: np.ndarray, ends: np.ndarray,
                  kinds: np.ndarray, names: Tuple[str, ...]) -> None:
    """Append one ``queue`` row per maximal run of instructions of one kind
    (``names[kinds[i]]``) that each start the instant the one before ends."""
    new = np.empty(len(starts), dtype=bool)
    new[0] = True
    np.not_equal(starts[1:], ends[:-1], out=new[1:])
    new[1:] |= kinds[1:] != kinds[:-1]
    first = np.flatnonzero(new)
    last = np.append(first[1:], len(starts)) - 1
    labels, starts_col, ends_col, kinds_col = queue.replay_columns()
    labels.extend(repeat(label, len(first)))
    starts_col.frombytes(starts[first].tobytes())
    ends_col.frombytes(ends[last].tobytes())
    kinds_col.extend(names[k] for k in kinds[first].tolist())

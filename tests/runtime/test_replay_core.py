"""The columnar replay core against the scalar replay loop, bit for bit.

``SegmentCore._replay`` runs a recorded trace column by column: Python
visits only the event points (loads, kernels waiting on a loaded slot,
OPG-only transforms) and every dependency-free run is one
``np.add.accumulate``.  Here random traces replay through it and through
``replay_reference`` (the one-instruction-at-a-time loop in
``tests/oracles/sim.py``) on two fresh simulations with the same random
pre-state, and every clock, accumulator, busy interval, energy figure and
timeline column must match to the last bit.  ``run_segment`` records one
pass per streaming segment, which is sound because every pass after pass
0 records the same trace; that is checked over the model zoo, in both
rewriting modes, and on a streamed decode.  The streaming index memo is
checked against fresh indexes at the end.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity.model import analytic_capacity_model
from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.gpusim.device import get_device
from repro.gpusim.energy import measure_energy
from repro.gpusim.engine import Simulation
from repro.graph.builder import GraphBuilder
from repro.graph.models import EVALUATED_MODELS, load_decode_model, load_model
from repro.graph.ops import OpKind
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig
from repro.runtime import segment
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.scenario import Scenario
from repro.runtime.segment import SegmentCore, build_stream_index, stream_index
from tests.oracles import replay_reference, run_segment_every_pass
from tests.runtime.identity import assert_results_identical, replay_on_off, spans

EXEC, LOAD, XFORM = segment._OP_EXEC, segment._OP_LOAD, segment._OP_XFORM
SLOTS = 4
DEVICE = get_device("OnePlus 12")


def _graph():
    b = GraphBuilder("replay-core")
    b.embedding(8, 64, 32)
    b.transformer_block(8, 32, 2)
    return b.finish().freeze()


GRAPH = _graph()

# Dyadic durations make ties (a load landing exactly as the GPU frees, the
# IO and GPU clocks meeting) common; arbitrary floats make the order of
# every addition visible in the last bits.
durations = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)
slots = st.integers(0, SLOTS - 1)
kernels = st.builds(
    lambda dur, waits, seg_ops, frees: (EXEC, dur, tuple(waits), tuple(seg_ops), tuple(frees),
                                        "exec:k"),
    durations,
    st.lists(slots, max_size=3),
    st.lists(st.tuples(st.integers(0, 1000), st.sampled_from([0, 0, 700])), max_size=2),
    st.lists(st.integers(0, 1000), max_size=2),
)
loads = st.builds(lambda s, dur, nbytes: (LOAD, s, dur, nbytes, "load:w"),
                  slots, durations, st.integers(0, 1000))
transforms = st.builds(lambda s, dur: (XFORM, s, dur, "xform:w"), slots, durations)
traces = st.lists(st.one_of(kernels, loads, transforms), min_size=1, max_size=14).filter(
    lambda trace: any(ins[0] != LOAD for ins in trace)  # every pass runs a kernel
)
prestates = st.tuples(
    st.lists(st.tuples(st.sampled_from(["setup", "transform", "compute"]), durations),
             max_size=3),
    st.lists(st.tuples(durations, durations), max_size=3),
    durations,
    durations,
)


def _fresh(pre):
    """A simulation and core in the pre-state ``pre``: GPU and IO work
    already queued, running exec/stall totals, and a ballast allocation so
    the trace's frees never take the timeline below zero."""
    gpu_work, io_work, exec_total, stall_total = pre
    sim = Simulation(DEVICE, model="replay-core", runtime="test")
    sim.alloc_um("ballast", 10**9, -1.0)
    for kind, dur in gpu_work:
        sim.queues.gpu.submit_fast(f"pre:{kind}", dur, 0.0, kind)
    for dur, not_before in io_work:
        sim.queues.io.submit_fast("pre:load", dur, not_before, "load")
    core = SegmentCore(sim, GRAPH)
    core.exec_total, core.stall_total = exec_total, stall_total
    core._slots = {f"w{i}": i for i in range(SLOTS)}
    return sim, core


def _columnar(core, trace, start_it, iterations, tag_prefix):
    core._replay(segment._columns(trace), start_it, iterations, tag_prefix)


def _state(sim, core):
    """Every replay output that can reach a RunResult, as exact bits."""
    queues = sim.queues
    floats = [queues.io.free_at, queues.gpu.free_at, core.exec_total, core.stall_total]
    for queue in (queues.io, queues.gpu):
        floats.append(queue.busy_time_ms())
        floats.extend(queue.busy_time_ms(kind=kind)
                      for kind in ("setup", "load", "transform", "compute"))
    report = measure_energy(queues, sim.device, end_ms=queues.makespan_ms)
    floats.extend(dataclasses.astuple(report))
    timeline = sim.build_timeline()
    return (
        [value.hex() for value in floats],
        [[(a.hex(), b.hex()) for a, b in queue.busy_intervals()]
         for queue in (queues.io, queues.gpu)],
        timeline.times.tobytes(),
        timeline.totals.tobytes(),
    )


def _both(pre, trace, start_it, passes):
    states = []
    for engine in (_columnar, replay_reference):
        sim, core = _fresh(pre)
        engine(core, tuple(trace), start_it, start_it + passes, "t")
        states.append(_state(sim, core))
    return states


@given(prestates, traces, st.integers(0, 3), st.integers(1, 5))
@settings(max_examples=250, deadline=None)
def test_columnar_replay_matches_scalar_loop(pre, trace, start_it, passes):
    columnar, scalar = _both(pre, trace, start_it, passes)
    assert columnar == scalar


def test_loads_at_both_ends_and_ties():
    """Loads before a pass's first kernel and after its last, a kernel whose
    load lands exactly as the GPU frees (pass 1; later passes stall there),
    a transform's stall gap, and the IO and GPU clocks meeting."""
    trace = (
        (LOAD, 0, 1.0, 100, "load:a"),
        (EXEC, 1.0, (), (), (), "exec:x"),
        (EXEC, 0.5, (0,), ((100, 100),), (), "exec:y"),
        (LOAD, 1, 3.0, 50, "load:b"),
        (XFORM, 1, 0.25, "xform:b"),
        (EXEC, 0.0, (1,), ((50, 50),), (), "exec:z"),
        (LOAD, 2, 0.5, 10, "load:c"),
    )
    pre = ([("setup", 1.0)], [(1.0, 0.0)], 0.0, 0.0)
    columnar, scalar = _both(pre, trace, 0, 4)
    assert columnar == scalar
    rows = []
    for engine in (_columnar, replay_reference):
        sim, core = _fresh(pre)
        engine(core, trace, 0, 4, "t")
        # y waits 0.5 on load a from pass 2; a transform's wait is no stall.
        assert core.stall_total == 3 * 0.5
        rows.append([[(e.start_ms, e.end_ms, e.kind) for e in q.events[1:]]
                     for q in (sim.queues.io, sim.queues.gpu)])
    # One row per contiguous same-kind span of the scalar loop's rows.
    assert rows[0] == [spans(queue_rows) for queue_rows in rows[1]]
    assert len(rows[0][1]) == 12 < len(rows[1][1]) == 16


def test_pure_segment_replays_every_pass_in_one_row():
    """A pure-compute segment replays from its first pass and matches
    simulating every pass, KV appends included; its kernels are one
    contiguous span, so one row."""
    durations = [0.25 * (i % 3) + 0.1 * i for i in range(len(GRAPH.nodes()))]
    runs = []
    for run_segment in (SegmentCore.run_segment, run_segment_every_pass):
        sim, core = _fresh(([("setup", 1.0)], [], 0.5, 0.0))
        run_segment(core, 0, 6, durations, "i", {1: 64, 3: 32})
        runs.append((sim, core, _state(sim, core)))
    (sim, core, replayed), (_, _, simulated) = runs
    assert replayed == simulated
    assert core.replayed == 6
    assert len(sim.queues.gpu) == 2 and not len(sim.queues.io)  # set-up + one span
    with pytest.raises(ValueError, match="non-negative"):
        core.run_segment(6, 7, [-1.0] + durations[1:], "i")


#: Passes recorded per check (after pass 0, or from a segment's start).
RECORDED = 4


def _recorded_traces(compiled, rewriting, start, kv_append=segment._NO_APPEND):
    """Traces of ``RECORDED`` consecutive passes from ``start``, each
    recorded as ``run_segment`` records one; pass 0 runs unrecorded first
    when ``start`` is 0, as in a run's first segment."""
    sim = Simulation(compiled.device, model=compiled.graph.name, runtime="FlashMem")
    core = SegmentCore(sim, compiled.graph, compiled.plan, rewriting=rewriting)
    durations = FlashMemExecutor(compiled.device)._durations(compiled.bundle, core.nodes)
    if start == 0:
        core._pass(0, "i0:", durations, kv_append, False)
        start = 1
    return [core._pass(k, f"i{k}:", durations, kv_append, True)
            for k in range(start, start + RECORDED)]


@pytest.mark.parametrize("rewriting", [True, False], ids=["rewriting", "opg-only"])
@pytest.mark.parametrize("model", EVALUATED_MODELS)
def test_every_pass_after_the_first_records_one_trace(session_compile, model, rewriting):
    """For every k >= 1, pass k's trace equals pass k+1's, and it is
    alloc/free balanced, so replaying the first recorded pass is exact."""
    compiled = session_compile(model, "Pixel 8")
    assert compiled.plan.streamed_weights
    traces = _recorded_traces(compiled, rewriting, 0)
    assert traces[0] is not None
    assert all(trace == traces[0] for trace in traces[1:])


@pytest.mark.parametrize("start", [0, 5])
def test_streamed_decode_segment_records_one_trace(start):
    """Decode segments with streamed weights and KV appends: from the
    first segment (token 1 on) and from a later one (its first token on)."""
    fm = FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=50)))
    compiled = fm.compile(load_decode_model("GPTN-S", context_len=256), DEVICE,
                          target_preload_ratio=0.6)
    assert compiled.plan.streamed_weights
    appends = segment.attention_index(compiled.graph).append
    traces = _recorded_traces(compiled, True, start, appends)
    assert traces[0] is not None
    assert all(trace == traces[0] for trace in traces[1:])
    assert traces[0] == _recorded_traces(compiled, True, 0, appends)[0]


def test_unbalanced_pass_is_never_replayed(monkeypatch, session_compile):
    """A plan whose streamed weight never finishes transforming leaves its
    UM copy live at the end of every pass: the recorded pass is not
    alloc/free balanced, so every pass is simulated, and teardown frees
    what the passes left."""
    compiled = session_compile("GPTN-S", "Pixel 8")
    plan = compiled.plan
    name = next(n for n, s in plan.schedules.items()
                if not s.preloaded and not s.dedicated_transform and len(s.transforms) > 1)
    sched = plan.schedules[name]
    short = dict(sched.transforms)
    del short[max(short)]
    schedules = dict(plan.schedules)
    schedules[name] = dataclasses.replace(sched, transforms=short)
    broken = dataclasses.replace(plan, schedules=schedules)
    scenario = Scenario.prefill(5)
    executor = FlashMemExecutor(compiled.device)
    fast, full = replay_on_off(
        monkeypatch, lambda: executor.run(compiled.graph, broken, compiled.bundle, scenario=scenario)
    )
    assert_results_identical(fast, full)
    assert fast.details["replayed_iterations"] == 0
    assert fast.memory.totals[-1] == 0


def test_stream_index_memo_answers_for_its_graph_and_plan_only():
    """Two plans on one graph, and one plan on a rebuilt copy of that graph:
    each run's memoized index equals a fresh one, and none is shared."""
    config = OpgConfig(max_nodes_per_window=300)
    capacity = analytic_capacity_model(DEVICE)
    graph = load_model("GPTN-S").freeze()
    plans = [
        LcOpgSolver(config).solve(graph, capacity, device_name=DEVICE.name,
                                  target_preload_ratio=ratio)
        for ratio in (0.3, 0.7)
    ]
    executor = FlashMemExecutor(DEVICE)
    seen = []
    for plan in plans:
        executor.run(graph, plan)
        index = stream_index(graph, plan)
        assert index == build_stream_index(graph, plan)
        assert stream_index(graph, plan) is index  # a second run reuses it
        seen.append(index)
    assert seen[0] != seen[1]
    rebuilt = load_model("GPTN-S").freeze()
    first = executor.run(graph, plans[0])
    again = executor.run(rebuilt, plans[0])
    index = stream_index(rebuilt, plans[0])
    assert index == build_stream_index(rebuilt, plans[0])
    assert index is not seen[0]
    assert again.latency_ms == first.latency_ms
    assert again.peak_memory_bytes == first.peak_memory_bytes


def test_attention_index_is_memoized_on_its_frozen_graph():
    """Every decode run of either executor reads one index per graph; a
    rebuilt copy of the graph builds an equal index of its own."""
    graph = load_decode_model("GPTN-S", context_len=256).freeze()
    index = segment.attention_index(graph)
    assert segment.attention_index(graph) is index
    rebuilt = load_decode_model("GPTN-S", context_len=256).freeze()
    assert segment.attention_index(rebuilt) == index
    assert segment.attention_index(rebuilt) is not index
    kinds = [node.kind for node in graph.nodes()]
    assert [kinds[p] for p in index.positions] == [OpKind.FLASH_ATTENTION] * len(index.positions)
    assert [kinds[p] for p in index.append] == [OpKind.KV_APPEND] * len(index.append)

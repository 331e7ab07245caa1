"""Tests for the FIFO multi-model pipeline and the naive overlap planners."""

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig, build_problem
from repro.opg.validate import validate_plan
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.frameworks import MNN
from repro.runtime.multimodel import FifoPipeline, fifo_schedule
from repro.runtime.naive_overlap import AlwaysNextPlanner, SameOpTypePlanner
from repro.runtime.preload import PreloadExecutor
from tests.runtime.identity import assert_timelines_identical

FAST = OpgConfig(max_nodes_per_window=200, chunk_bytes=8 * 1024)


def _model(name, blocks=2, dim=128):
    b = GraphBuilder(name)
    b.embedding(16, 500, dim)
    for _ in range(blocks):
        b.transformer_block(16, dim, 4)
    return b.finish()


@pytest.fixture(scope="module")
def device():
    return oneplus_12()


@pytest.fixture(scope="module")
def capacity(device):
    return analytic_capacity_model(device)


class TestFifoSchedule:
    def test_each_model_n_times(self):
        seq = fifo_schedule(["a", "b"], 3, seed=1)
        assert len(seq) == 6
        assert seq.count("a") == seq.count("b") == 3

    def test_seeded_deterministic(self):
        assert fifo_schedule(["a", "b", "c"], 4, seed=9) == fifo_schedule(["a", "b", "c"], 4, seed=9)

    def test_different_seeds_differ(self):
        a = fifo_schedule(["a", "b", "c", "d"], 5, seed=1)
        b = fifo_schedule(["a", "b", "c", "d"], 5, seed=2)
        assert a != b


class TestFifoPipeline:
    @pytest.fixture(scope="class")
    def session(self, device, capacity):
        models = {name: _model(name) for name in ("m1", "m2")}
        plans = {name: LcOpgSolver(FAST).solve(g, capacity) for name, g in models.items()}
        executor = FlashMemExecutor(device)
        pipeline = FifoPipeline(
            "FlashMem", device.name, lambda m: executor.run(models[m], plans[m])
        )
        return pipeline.run(fifo_schedule(["m1", "m2"], 3, seed=0))

    def test_invocation_count(self, session):
        assert len(session.invocations) == 6

    def test_clock_monotone(self, session):
        ends = [inv.end_ms for inv in session.invocations]
        assert ends == sorted(ends)
        assert session.total_ms == ends[-1]

    def test_memory_troughs_between_models(self, session):
        # At each boundary the finished model has torn down; only the next
        # model's process baseline (if any) remains at that instant.
        baseline = 100e6
        for inv in session.invocations[:-1]:
            assert session.memory.usage_at(inv.end_ms) <= baseline
        assert session.memory.usage_at(session.invocations[-1].end_ms) == 0

    def test_session_peak_is_max_of_invocations(self, session):
        assert session.peak_memory_bytes == max(i.peak_memory_bytes for i in session.invocations)

    def test_per_model_latency_query(self, session):
        assert len(session.latency_of("m1")) == 3

    def test_preloader_session_has_higher_peak(self, device, capacity, session):
        models = {name: _model(name) for name in ("m1", "m2")}
        mnn = FifoPipeline(
            "MNN",
            device.name,
            lambda m: PreloadExecutor(MNN, device).run(models[m], check_support=False),
        ).run(fifo_schedule(["m1", "m2"], 3, seed=0))
        assert mnn.peak_memory_bytes > session.peak_memory_bytes
        assert mnn.total_ms > session.total_ms


class TestArrivals:
    """Timed replay: overlapping sessions must sum, not zero each other."""

    @pytest.fixture(scope="class")
    def pipeline(self, device, capacity):
        models = {name: _model(name) for name in ("m1", "m2")}
        plans = {name: LcOpgSolver(FAST).solve(g, capacity) for name, g in models.items()}
        executor = FlashMemExecutor(device)
        return FifoPipeline(
            "FlashMem", device.name, lambda m: executor.run(models[m], plans[m])
        )

    def test_overlap_keeps_resident_memory(self, pipeline):
        solo = pipeline.run(["m1"])
        # Start m2 halfway through m1: at m1's end, m2 is still resident,
        # so the floor must NOT drop to zero (the seed's unconditional
        # record(end, 0) zeroed it).
        overlap = pipeline.run(["m1", "m2"], arrivals=[0.0, solo.total_ms / 2])
        first_end = overlap.invocations[0].end_ms
        assert overlap.invocations[1].start_ms < first_end
        assert overlap.memory.usage_at(first_end) > 0
        # After everything ends, the session does drain to zero.
        assert overlap.memory.usage_at(overlap.total_ms) == 0

    def test_idle_gap_still_drops_to_zero(self, pipeline):
        solo = pipeline.run(["m1"])
        gap_start = solo.total_ms + 500.0
        spaced = pipeline.run(["m1", "m2"], arrivals=[0.0, gap_start])
        assert spaced.memory.usage_at(solo.total_ms + 250.0) == 0

    def test_back_to_back_arrivals_match_default(self, pipeline):
        default = pipeline.run(["m1", "m2"])
        timed = pipeline.run(
            ["m1", "m2"], arrivals=[inv.start_ms for inv in default.invocations]
        )
        assert_timelines_identical(timed.memory, default.memory)
        assert timed.total_ms == default.total_ms

    def test_arrival_validation(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.run(["m1", "m2"], arrivals=[0.0])
        with pytest.raises(ValueError):
            pipeline.run(["m1", "m2"], arrivals=[10.0, 0.0])


class TestNaivePlanners:
    def test_always_next_single_host(self, capacity):
        g = _model("g")
        plan = AlwaysNextPlanner(FAST).solve(g, capacity)
        for s in plan.schedules.values():
            if not s.preloaded:
                assert list(s.transforms) == [s.consumer_layer - 1]
                assert s.load_layer == s.consumer_layer - 1

    def test_always_next_covers_all_chunks(self, capacity):
        g = _model("g")
        plan = AlwaysNextPlanner(FAST).solve(g, capacity)
        for s in plan.schedules.values():
            if not s.preloaded:
                assert s.streamed_chunks == s.total_chunks

    def test_same_op_type_hosts_match_kind(self, capacity):
        g = _model("g")
        plan = SameOpTypePlanner(FAST).solve(g, capacity)
        nodes = g.nodes()
        for s in plan.schedules.values():
            if s.preloaded:
                continue
            consumer_kind = nodes[s.consumer_layer].kind
            for layer in s.transforms:
                assert nodes[layer].kind is consumer_kind

    def test_naive_plans_slower_than_lcopg(self, device, capacity):
        g = _model("g", blocks=3, dim=256)
        executor = FlashMemExecutor(device)
        ours = executor.run(g, LcOpgSolver(FAST).solve(g, capacity))
        always = executor.run(g, AlwaysNextPlanner(FAST).solve(g, capacity), runtime_name="AlwaysNext")
        assert always.latency_ms > ours.latency_ms

    def test_lcopg_valid_where_naive_is_not(self, capacity):
        # Always-Next ignores capacity: it should violate C3 on some layer,
        # while the LC-OPG plan validates clean.
        g = _model("g", blocks=3, dim=256)
        problem = build_problem(g, capacity, FAST)
        naive_errors = validate_plan(AlwaysNextPlanner(FAST).solve(g, capacity), problem)
        lcopg_errors = validate_plan(LcOpgSolver(FAST).solve(g, capacity), problem)
        assert any("C3" in e or "C2" in e for e in naive_errors)
        assert lcopg_errors == []

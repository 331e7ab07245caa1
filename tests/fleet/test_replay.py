"""Tests for episode memoization and trace replay (scheduling + identity)."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.store import ArtifactStore, swap_store
from repro.fleet.episode import Episode, EpisodeProvider
from repro.fleet.replay import CellResult, cell_columns, replay_trace
from repro.fleet.trace import ThrottleWindow, Trace, TraceInvocation, generate_trace
from repro.gpusim.timeline import (
    MemoryTimeline,
    Phases,
    RunResult,
    merge_session_columns,
    session_deltas,
)
from repro.runtime.scenario import Scenario

PREFILL = Scenario.prefill(1)
MIX = (("ViT", PREFILL, 1, 3.0), ("ResNet50", PREFILL, 0, 1.0))

#: Two arrivals queue behind the first (back-to-back handoffs), the device
#: then idles until 15 s, and a hot window covers the last two invocations,
#: which hand off to each other again.
HANDOFF_TRACE = Trace(
    name="handoff",
    seed=0,
    duration_ms=30_000.0,
    invocations=[
        TraceInvocation(0.0, "ViT", PREFILL, priority=0),
        TraceInvocation(1.0, "ResNet50", PREFILL, priority=0),
        TraceInvocation(2.0, "ViT", PREFILL, priority=1),
        TraceInvocation(15_000.0, "ResNet50", PREFILL, priority=0),
        TraceInvocation(15_001.0, "ViT", PREFILL, priority=0),
    ],
    throttle=[ThrottleWindow(14_000.0, 30_000.0, "hot")],
)


@pytest.fixture
def runs(monkeypatch):
    """The RunResult behind every Episode simulated in the test, by id.

    The persistent store is switched off so every episode is simulated (and
    seen here) rather than loaded.
    """
    captured = {}
    from_run = Episode.from_run

    def spy(result, **kwargs):
        episode = from_run(result, **kwargs)
        captured[id(episode)] = result
        return episode

    monkeypatch.setattr(Episode, "from_run", spy)
    previous = swap_store(None)
    yield captured
    swap_store(previous)


def _run_result(samples, latency_ms):
    memory = MemoryTimeline([t for t, _ in samples], [v for _, v in samples])
    return RunResult(
        model="m",
        runtime="r",
        device="d",
        latency_ms=latency_ms,
        phases=Phases(),
        memory=memory,
        peak_memory_bytes=max(v for _, v in samples),
        avg_memory_bytes=0.0,
    )


@pytest.fixture(scope="module")
def trace():
    return generate_trace(seed=3, duration_s=45, rate_per_min=40, mix=MIX, name="t")


@pytest.fixture(scope="module")
def memo_cell(trace):
    return replay_trace(trace, "OnePlus 12", "FlashMem")


class TestEpisodeProvider:
    def test_memoizes_repeat_requests(self):
        provider = EpisodeProvider()
        a = provider.get("ViT", "OnePlus 12", "FlashMem", PREFILL, "nominal")
        b = provider.get("ViT", "OnePlus 12", "FlashMem", PREFILL, "nominal")
        assert a is b
        assert provider.simulated == 1
        assert provider.replayed == 1

    def test_throttle_state_is_part_of_key(self):
        provider = EpisodeProvider()
        nominal = provider.get("ViT", "OnePlus 12", "FlashMem", PREFILL, "nominal")
        hot = provider.get("ViT", "OnePlus 12", "FlashMem", PREFILL, "hot")
        assert provider.simulated == 2
        assert hot.latency_ms > nominal.latency_ms

    def test_naive_mode_always_simulates(self):
        provider = EpisodeProvider(memoize=False)
        provider.get("ViT", "OnePlus 12", "FlashMem", PREFILL)
        provider.get("ViT", "OnePlus 12", "FlashMem", PREFILL)
        assert provider.simulated == 2
        assert provider.replayed == 0

    def test_unknown_state_rejected(self):
        with pytest.raises(KeyError):
            EpisodeProvider().get("ViT", "OnePlus 12", "FlashMem", PREFILL, "melting")

    def test_episode_columns_round_trip(self, runs):
        episode = EpisodeProvider().get("ViT", "OnePlus 12", "FlashMem", PREFILL)
        run = runs[id(episode)]
        assert episode.latency_ms > 0
        # The run's rows, then the teardown row at the episode's end.
        assert episode.times[:-1].tobytes() == run.memory.times.tobytes()
        assert episode.totals[:-1].tobytes() == run.memory.totals.tobytes()
        assert (episode.times.dtype, episode.totals.dtype) == (np.float64, np.int64)
        assert (episode.times[-1], episode.totals[-1]) == (episode.latency_ms, 0)
        assert episode.peak_bytes == int(episode.totals.max()) == run.peak_memory_bytes

    def test_columns_accept_sample_at_latency(self):
        run = _run_result([(0.0, 0), (1.0, 7), (2.0, 3)], latency_ms=2.0)
        episode = Episode.from_run(run, scenario=PREFILL, state="nominal")
        assert episode.times.tolist() == [0.0, 1.0, 2.0, 2.0]
        assert episode.totals.tolist() == [0, 7, 3, 0]
        assert episode.peak_bytes == 7

    def test_columns_reject_negative_total(self):
        run = _run_result([(0.0, 0), (1.0, -5)], latency_ms=2.0)
        with pytest.raises(ValueError, match="negative"):
            Episode.from_run(run, scenario=PREFILL, state="nominal")

    def test_columns_reject_sample_after_latency(self):
        run = _run_result([(0.0, 0), (1.0, 5), (2.5, 1)], latency_ms=2.0)
        with pytest.raises(ValueError, match="latency_ms"):
            Episode.from_run(run, scenario=PREFILL, state="nominal")

    def test_persistent_store_read_through(self, tmp_path):
        previous = swap_store(ArtifactStore(tmp_path))
        try:
            first = EpisodeProvider()
            first.get("ViT", "OnePlus 12", "FlashMem", PREFILL)
            assert first.simulated == 1
            # A fresh provider (fresh process, conceptually) hits the store.
            second = EpisodeProvider()
            second.get("ViT", "OnePlus 12", "FlashMem", PREFILL)
            assert second.simulated == 0
            assert second.replayed == 1
        finally:
            swap_store(previous)


class TestReplayScheduling:
    def test_device_serves_one_at_a_time(self, memo_cell):
        ordered = sorted(memo_cell.outcomes, key=lambda o: o.start_ms)
        for a, b in zip(ordered, ordered[1:]):
            assert b.start_ms >= a.end_ms

    def test_every_invocation_scheduled_once(self, trace, memo_cell):
        assert memo_cell.invocations == len(trace.invocations)
        assert sorted(o.index for o in memo_cell.outcomes) == list(
            range(len(trace.invocations))
        )

    def test_no_start_before_arrival(self, memo_cell):
        for outcome in memo_cell.outcomes:
            assert outcome.start_ms >= outcome.arrival_ms
            assert outcome.latency_ms >= outcome.end_ms - outcome.start_ms

    def test_priority_wins_among_queued(self):
        # Three arrivals while the device is busy with the first: the
        # priority-1 request must start before the earlier priority-0 one.
        trace = Trace(
            name="p",
            seed=0,
            duration_ms=10_000.0,
            invocations=[
                TraceInvocation(0.0, "ViT", PREFILL, priority=0),
                TraceInvocation(1.0, "ViT", PREFILL, priority=0),
                TraceInvocation(2.0, "ViT", PREFILL, priority=1),
            ],
        )
        cell = replay_trace(trace, "OnePlus 12", "FlashMem")
        by_index = {o.index: o for o in cell.outcomes}
        assert by_index[2].start_ms < by_index[1].start_ms

    def test_throttled_window_slows_invocations(self):
        hot = Trace(
            name="hot",
            seed=0,
            duration_ms=60_000.0,
            invocations=[TraceInvocation(1_000.0, "ViT", PREFILL, priority=1)],
            throttle=[ThrottleWindow(0.0, 60_000.0, "critical")],
        )
        cool = Trace(
            name="cool",
            seed=0,
            duration_ms=60_000.0,
            invocations=[TraceInvocation(1_000.0, "ViT", PREFILL, priority=1)],
        )
        provider = EpisodeProvider()
        slow = replay_trace(hot, "OnePlus 12", "FlashMem", provider=provider)
        fast = replay_trace(cool, "OnePlus 12", "FlashMem", provider=provider)
        assert slow.outcomes[0].state == "critical"
        assert slow.outcomes[0].latency_ms > fast.outcomes[0].latency_ms
        # Same SLO target either way: the budget is nominal-latency based.
        assert slow.outcomes[0].slo_target_ms == fast.outcomes[0].slo_target_ms


class TestReplayIdentity:
    def test_memoized_equals_naive(self, trace, memo_cell):
        naive = replay_trace(
            trace, "OnePlus 12", "FlashMem", provider=EpisodeProvider(memoize=False)
        )
        assert naive.episodes_simulated > memo_cell.episodes_simulated
        assert memo_cell.canonical_json() == naive.canonical_json()

    @pytest.mark.parametrize("runtime", ["FlashMem", "MNN"])
    def test_cell_columns_equal_session_merge(self, runs, runtime):
        provider = EpisodeProvider()
        cell = replay_trace(HANDOFF_TRACE, "OnePlus 12", runtime, provider=provider)
        ordered = sorted(cell.outcomes, key=lambda o: o.start_ms)
        gaps = [b.start_ms - a.end_ms for a, b in zip(ordered, ordered[1:])]
        assert gaps.count(0.0) >= 2 and max(gaps) > 0.0
        assert {o.state for o in ordered} == {"nominal", "hot"}
        sessions = [
            (o.start_ms, provider.get(o.model, "OnePlus 12", runtime, PREFILL, o.state))
            for o in ordered
        ]
        sha256, totals, held = cell_columns(sessions)
        # Oracle: the stable-sorted merge of each session's own run.
        merged_times, merged_totals = merge_session_columns(
            [
                (start, *session_deltas(runs[id(episode)].memory), start + episode.latency_ms)
                for start, episode in sessions
            ]
        )
        assert held.tobytes() == np.diff(merged_times).tobytes()
        assert totals.tobytes() == merged_totals.astype(np.float64).tobytes()
        assert cell.peak_bytes == int(merged_totals.max())
        area = float(np.dot(merged_totals[:-1], np.diff(merged_times)))
        area += float(merged_totals[-1]) * (cell.makespan_ms - float(merged_times[-1]))
        assert cell.avg_bytes == area / cell.makespan_ms
        digest = hashlib.sha256(merged_times.tobytes())
        digest.update(merged_totals.tobytes())
        assert cell.timeline_sha256 == sha256 == digest.hexdigest()

    def test_empty_trace_hashes_origin_row(self):
        empty = Trace(name="empty", seed=0, duration_ms=1_000.0, invocations=[])
        cell = replay_trace(empty, "OnePlus 12", "FlashMem")
        digest = hashlib.sha256(np.zeros(1, dtype=np.float64).tobytes())
        digest.update(np.zeros(1, dtype=np.int64).tobytes())
        assert cell.timeline_sha256 == digest.hexdigest()
        assert (cell.peak_bytes, cell.avg_bytes) == (0, 0.0)

    def test_cell_memory_is_two_columns(self):
        # ~130 invocations of a ~900-row episode: well over 100k timeline
        # rows.  The streamed tail holds two whole-cell float64 columns
        # (held and totals) plus one episode's scratch, ~2.0x of 8 B x rows;
        # a materialized (times, totals) timeline would add two more.
        trace = generate_trace(
            seed=5, invocations=130, mix=(("ResNet50", PREFILL, 0, 1.0),), name="mem"
        )
        provider = EpisodeProvider()
        replay_trace(trace, "OnePlus 12", "MNN", provider=provider)  # fill the memo
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cell = replay_trace(trace, "OnePlus 12", "MNN", provider=provider)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert cell.episodes_simulated == 0
        rows = 1 + sum(
            len(provider.get("ResNet50", "OnePlus 12", "MNN", PREFILL, o.state).times)
            for o in cell.outcomes
        )
        assert rows >= 100_000
        assert peak < 2.5 * 8 * rows

    def test_far_fewer_simulations(self, trace, memo_cell):
        assert memo_cell.episodes_simulated < len(trace.invocations)
        assert (
            memo_cell.episodes_simulated + memo_cell.invocations_replayed
            == 2 * len(trace.invocations)  # throttled + nominal per invocation
        )


class TestCellStats:
    def test_percentiles_ordered(self, memo_cell):
        assert 0 < memo_cell.p50_ms <= memo_cell.p99_ms
        assert memo_cell.p99_ms <= max(o.latency_ms for o in memo_cell.outcomes)

    def test_slo_attainment_bounds(self, memo_cell):
        assert 0.0 <= memo_cell.slo_attainment <= 1.0

    def test_empty_cell_defaults(self):
        cell = CellResult(trace_name="t", device="d", runtime="r", slo_multiplier=3.0)
        assert cell.p50_ms == 0.0
        assert cell.slo_attainment == 1.0

    def test_makespan_covers_trace(self, trace, memo_cell):
        assert memo_cell.makespan_ms >= trace.duration_ms
        assert memo_cell.device_hours == pytest.approx(
            memo_cell.makespan_ms / 3_600_000.0
        )

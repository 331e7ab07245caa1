"""Tests for queues, timeline accounting, the energy model, and Simulation."""

import math
import random

import numpy as np
import pytest

from repro.gpusim import energy
from repro.gpusim.device import oneplus_12
from repro.gpusim.energy import measure_energy
from repro.gpusim.engine import Simulation
from repro.gpusim.queues import CommandQueue, DualQueue
from repro.gpusim.timeline import MemoryTimeline, Phases, geo_mean
from tests.oracles import busy_intervals_reference


class TestCommandQueue:
    def test_serial_ordering(self):
        q = CommandQueue("gpu")
        e1 = q.submit("a", 10.0)
        e2 = q.submit("b", 5.0)
        assert e1.end_ms == 10.0
        assert e2.start_ms == 10.0
        assert q.free_at == 15.0

    def test_not_before_constraint(self):
        q = CommandQueue("gpu")
        e = q.submit("a", 5.0, not_before=20.0)
        assert e.start_ms == 20.0

    def test_negative_duration_rejected(self):
        q = CommandQueue("gpu")
        with pytest.raises(ValueError):
            q.submit("a", -1.0)

    def test_busy_and_idle_time(self):
        q = CommandQueue("gpu")
        q.submit("a", 10.0)
        q.submit("b", 5.0, not_before=20.0)
        assert q.busy_time_ms() == 15.0
        assert q.idle_time_ms() == 10.0

    def test_busy_time_by_kind(self):
        q = CommandQueue("gpu")
        q.submit("a", 10.0, kind="compute")
        q.submit("b", 4.0, kind="transform")
        assert q.busy_time_ms(kind="compute") == 10.0
        assert q.busy_time_ms(kind="transform") == 4.0

    def test_advance_to(self):
        q = CommandQueue("gpu")
        q.advance_to(50.0)
        assert q.submit("a", 1.0).start_ms == 50.0

    @pytest.mark.parametrize("seed", range(5))
    def test_busy_intervals_match_sorting_merge(self, seed):
        """The one-pass merge equals merging the event list by sorting,
        with back-to-back, gapped and zero-duration events."""
        rng = random.Random(seed)
        q = CommandQueue("gpu")
        for k in range(200):
            gap = rng.choice((0.0, 0.0, 0.5, 3.0))
            duration = rng.choice((0.0, 0.25, 1.0, 7.5))
            q.submit_fast(f"e{k}", duration, q.free_at + gap)
        assert q.busy_intervals() == busy_intervals_reference(q.events)


class TestDualQueue:
    def test_makespan(self):
        dq = DualQueue()
        dq.io.submit("load", 100.0)
        dq.gpu.submit("kern", 30.0)
        assert dq.makespan_ms == 100.0

    def test_all_events_sorted(self):
        dq = DualQueue()
        dq.gpu.submit("k1", 5.0)
        dq.io.submit("l1", 2.0)
        events = dq.all_events()
        assert [e.start_ms for e in events] == sorted(e.start_ms for e in events)


def _timeline(rows):
    """A timeline whose columns are the origin row, then ``rows``."""
    return MemoryTimeline([0.0] + [t for t, _ in rows], [0] + [v for _, v in rows])


class TestMemoryTimeline:
    def test_peak(self):
        t = _timeline([(1.0, 100), (2.0, 300), (3.0, 50)])
        assert t.peak_bytes == 300
        assert type(t.peak_bytes) is int

    def test_usage_at(self):
        t = _timeline([(1.0, 100), (5.0, 200)])
        assert t.usage_at(0.5) == 0
        assert t.usage_at(3.0) == 100
        assert t.usage_at(5.0) == 200
        assert type(t.usage_at(3.0)) is int

    def test_average_step_function(self):
        t = _timeline([(0.0, 100), (5.0, 0)])
        assert t.average_bytes(0.0, 10.0) == pytest.approx(50.0)
        assert type(t.average_bytes(0.0, 10.0)) is float

    def test_average_over_window(self):
        t = _timeline([(0.0, 100), (5.0, 0)])
        # 100 bytes for 5 ms out of a 10 ms window -> average 50.
        assert t.average_bytes(0.0, 10.0) == pytest.approx(50.0)
        # A window that starts between rows takes the value in force.
        assert t.average_bytes(2.5, 7.5) == pytest.approx(50.0)

    def test_average_constant_usage(self):
        t = _timeline([(0.0, 64)])
        assert t.average_bytes(1.0, 9.0) == pytest.approx(64.0)

    def test_series_resolution(self):
        t = _timeline([(0.0, 10), (100.0, 20)])
        series = t.series(resolution_ms=25.0, end_ms=100.0)
        assert len(series) == 5
        assert series[0][1] == 10
        assert series[-1] == (100.0, 20)

    def test_columns_read_only(self):
        t = _timeline([(1.0, 100)])
        assert t.times.dtype == np.float64 and t.totals.dtype == np.int64
        with pytest.raises(ValueError):
            t.totals[0] = 5

    def test_negative_memory_rejected(self):
        sim = Simulation(oneplus_12(), model="m", runtime="r")
        sim.log_memory([0.0], [-5])
        with pytest.raises(ValueError):
            sim.build_timeline()


class TestPhases:
    def test_init_and_total(self):
        p = Phases(setup=100, load=200, transform=300, execute=50)
        assert p.init == 600
        assert p.total == 650


class TestEnergy:
    def test_overlap_detected(self):
        dq = DualQueue()
        dq.io.submit("load", 100.0)
        dq.gpu.submit("kern", 100.0)
        report = measure_energy(dq, oneplus_12())
        assert report.overlap_ms == pytest.approx(100.0)
        assert report.io_only_ms == 0.0

    def test_serial_phases_no_overlap(self):
        dq = DualQueue()
        dq.io.submit("load", 50.0)
        dq.gpu.submit("kern", 50.0, not_before=50.0)
        report = measure_energy(dq, oneplus_12())
        assert report.overlap_ms == 0.0
        assert report.io_only_ms == pytest.approx(50.0)
        assert report.compute_only_ms == pytest.approx(50.0)

    def test_energy_scales_with_time(self):
        d = oneplus_12()
        short, long_ = DualQueue(), DualQueue()
        short.gpu.submit("k", 100.0)
        long_.gpu.submit("k", 1000.0)
        assert measure_energy(long_, d).energy_j > 5 * measure_energy(short, d).energy_j

    def test_overlap_power_higher_than_compute(self):
        d = oneplus_12()
        serial, overlap = DualQueue(), DualQueue()
        serial.gpu.submit("k", 100.0)
        overlap.gpu.submit("k", 100.0)
        overlap.io.submit("l", 100.0)
        assert (
            measure_energy(overlap, d).avg_power_w > measure_energy(serial, d).avg_power_w
        )

    def test_idle_tail_counted(self):
        dq = DualQueue()
        dq.gpu.submit("k", 10.0)
        report = measure_energy(dq, oneplus_12(), end_ms=110.0)
        assert report.idle_ms == pytest.approx(100.0)

    def test_subnormal_horizon_has_no_average_power(self):
        # 5e-324 ms is positive, but in seconds it rounds to zero.
        dq = DualQueue()
        dq.gpu.submit("k", 5e-324)
        report = measure_energy(dq, oneplus_12())
        assert report.avg_power_w == 0.0 and report.compute_only_ms == 5e-324

    def test_busy_totals_independent_of_builtin_sum(self, monkeypatch):
        # Python 3.12 made float sum() compensated; a compensated sum in the
        # module's namespace stands in for it.
        dq = DualQueue()
        for k, duration in enumerate((0.2, 0.9, 0.9)):
            dq.gpu.submit("k", duration, not_before=2.0 * k)
            dq.io.submit("l", 0.5, not_before=2.0 * k + 0.5)
        lengths = [end - start for start, end in dq.gpu.busy_intervals()]
        folded = 0.0
        for length in lengths:
            folded += length
        assert math.fsum(lengths) != folded
        report = measure_energy(dq, oneplus_12())
        monkeypatch.setattr(energy, "sum", math.fsum, raising=False)
        assert measure_energy(dq, oneplus_12()) == report


class TestSimulation:
    def test_alloc_roundtrip_and_timeline(self):
        sim = Simulation(oneplus_12(), model="m", runtime="r")
        sim.alloc_um("w", 1000, 0.0)
        sim.alloc_tm("w.tex", 1200, 1.0)
        assert sim.total_in_use == 2200
        sim.free_um("w", 2.0)
        assert sim.total_in_use == 1200
        assert sim.build_timeline().peak_bytes == 2200

    def test_oom_flag_set(self):
        dev = oneplus_12().scaled(ram_bytes=1000)
        sim = Simulation(dev, model="m", runtime="r")
        sim.alloc_um("big", 10_000, 0.0)
        assert sim.oom is not None

    def test_timeline_memoized_until_new_delta(self):
        sim = Simulation(oneplus_12(), model="m", runtime="r")
        sim.alloc_um("w", 1000, 0.0)
        first = sim.build_timeline()
        # oom probes and finish reuse the integrated timeline ...
        assert sim.build_timeline() is first
        assert sim.oom is None
        assert sim.finish().memory is first
        # ... and any new delta invalidates the memo.
        sim.alloc_um("w2", 500, 1.0)
        rebuilt = sim.build_timeline()
        assert rebuilt is not first
        assert rebuilt.peak_bytes == 1500

    def test_finish_builds_result(self):
        sim = Simulation(oneplus_12(), model="m", runtime="r")
        sim.queues.gpu.submit("k", 42.0)
        sim.alloc_um("w", 500, 0.0)
        result = sim.finish(details={"x": 1.0})
        assert result.latency_ms == 42.0
        assert result.model == "m"
        assert result.details["x"] == 1.0
        assert result.energy_j > 0

    def test_geo_mean(self):
        assert geo_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geo_mean([]) == 0.0


class TestTimelineTieBreaking:
    """The frees-before-allocs rule and its ``after_allocs`` escape hatch."""

    def test_same_instant_exchange_does_not_double_count(self):
        # A staging copy freed at the instant its texture copy appears is an
        # exchange: peak must be max(sizes), not their sum.
        sim = Simulation(oneplus_12(), model="m", runtime="r")
        sim.alloc_um("staging", 100, 0.0)
        sim.free_um("staging", 10.0)
        sim.alloc_tm("tex", 80, 10.0)
        assert sim.build_timeline().peak_bytes == 100

    def test_tie_rule_is_submission_order_independent(self):
        # Recording the alloc before the free at the same time must not
        # change the integrated peak (the pre-rule behavior depended on it).
        sim = Simulation(oneplus_12(), model="m", runtime="r")
        sim.alloc_um("staging", 100, 0.0)
        sim.alloc_tm("tex", 80, 10.0)  # delta logged before the free
        sim.free_um("staging", 10.0)
        assert sim.build_timeline().peak_bytes == 100

    def test_after_allocs_free_preserves_transient(self):
        # A mapped model file coexists with the last tensor copied out of it
        # (a genuine double-residency transient, Table 1): the escape hatch
        # integrates the free after the same-instant allocation.
        sim = Simulation(oneplus_12(), model="m", runtime="r")
        sim.alloc_um("model_file", 100, 0.0)
        sim.alloc_um("last_tensor", 60, 10.0)
        sim.free_um("model_file", 10.0, after_allocs=True)
        assert sim.build_timeline().peak_bytes == 160

    def test_timeline_still_chronological(self):
        sim = Simulation(oneplus_12(), model="m", runtime="r")
        sim.alloc_um("b", 50, 5.0)
        sim.alloc_um("a", 100, 0.0)
        sim.free_um("a", 5.0)
        times = sim.build_timeline().times.tolist()
        assert times == sorted(times)
        assert sim.build_timeline().peak_bytes == 100


class TestIdleClamp:
    def test_advance_to_counts_as_idle(self):
        q = CommandQueue("gpu")
        q.submit("a", 10.0)
        q.advance_to(50.0)
        assert q.idle_time_ms() == 40.0

    def test_idle_never_negative(self):
        # Accumulator drift (or a replayed clock) must clamp at zero rather
        # than report negative idle time.
        q = CommandQueue("gpu")
        q.submit("a", 10.0)
        free_at, busy_total, by_kind = q.clock_state()
        q.sync_clock(free_at, busy_total + 1e-9, by_kind)
        assert q.idle_time_ms() == 0.0

"""Tests for the preloading and FlashMem executors on the simulator."""

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12, xiaomi_mi6
from repro.kernels.codegen import ExecStyle
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.frameworks import MNN, SMARTMEM, get_profile
from repro.runtime.preload import ModelNotSupportedError, PreloadExecutor
from repro.runtime.scenario import Scenario


def _model(blocks=2, dim=256, seq=32, name="t"):
    b = GraphBuilder(name)
    b.embedding(seq, 2000, dim)
    for _ in range(blocks):
        b.transformer_block(seq, dim, 4)
    return b.finish()


def _conv_model():
    b = GraphBuilder("conv")
    b.embedding(4, 4, 4)
    b.conv(32, 32, 4, 32, 3)
    b.batchnorm((32, 32, 32), 32)
    b.activation((32, 32, 32))
    b.conv(32, 32, 32, 64, 3)
    return b.finish()


FAST = OpgConfig(max_nodes_per_window=200, chunk_bytes=8 * 1024)


@pytest.fixture(scope="module")
def device():
    return oneplus_12()


@pytest.fixture(scope="module")
def capacity(device):
    return analytic_capacity_model(device)


@pytest.fixture(scope="module")
def plan(capacity):
    return LcOpgSolver(FAST).solve(_model(), capacity, device_name="OnePlus 12")


class TestPreloadExecutor:
    def test_phases_sum_to_semantics(self, device):
        result = PreloadExecutor(SMARTMEM, device).run(_model(), check_support=False)
        assert result.phases.setup > 0
        assert result.phases.load > 0
        assert result.phases.transform > 0
        assert result.phases.execute > 0
        assert result.latency_ms >= result.details["init_ms"]

    def test_init_dominates_for_preloaders(self, device):
        result = PreloadExecutor(SMARTMEM, device).run(_model(), check_support=False)
        assert result.details["init_ms"] > result.details["exec_per_iter_ms"]

    def test_support_matrix_enforced(self, device):
        g = _model(name="GPTN-2.7B")
        with pytest.raises(ModelNotSupportedError):
            PreloadExecutor(SMARTMEM, device).run(g)

    def test_support_check_can_be_skipped(self, device):
        g = _model(name="GPTN-2.7B")
        result = PreloadExecutor(SMARTMEM, device).run(g, check_support=False)
        assert result.latency_ms > 0

    def test_iterations_add_exec_only(self, device):
        one = PreloadExecutor(SMARTMEM, device).run(
            _model(), check_support=False, scenario=Scenario.prefill(1)
        )
        three = PreloadExecutor(SMARTMEM, device).run(
            _model(), check_support=False, scenario=Scenario.prefill(3)
        )
        assert three.details["init_ms"] == pytest.approx(one.details["init_ms"])
        assert three.latency_ms > one.latency_ms

    def test_memory_timeline_monotone_peak(self, device):
        result = PreloadExecutor(MNN, device).run(_model(), check_support=False)
        times = result.memory.times
        assert (times[1:] >= times[:-1]).all()
        assert result.peak_memory_bytes >= result.avg_memory_bytes

    def test_fp32_staging_increases_memory(self, device):
        g = _model()
        plain = PreloadExecutor(SMARTMEM, device).run(g, check_support=False)
        tvm = PreloadExecutor(get_profile("TVM"), device).run(g, check_support=False)
        assert tvm.peak_memory_bytes > plain.peak_memory_bytes

    def test_no_texture_framework_has_no_transform(self, device):
        result = PreloadExecutor(get_profile("ETorch"), device).run(_model(name="ViT"))
        assert result.phases.transform == 0

    def test_oom_on_tiny_device(self):
        tiny = xiaomi_mi6().scaled(ram_bytes=256 * 1024 * 1024)
        result = PreloadExecutor(SMARTMEM, tiny).run(_model(), check_support=False)
        assert result.details.get("oom") == 1.0


class TestFlashMemExecutor:
    def test_integrated_latency_beats_smartmem_cold(self, device, capacity, plan):
        g = _model()
        flash = FlashMemExecutor(device).run(g, plan)
        smem = PreloadExecutor(SMARTMEM, device).run(g, check_support=False)
        assert flash.latency_ms < smem.latency_ms

    def test_average_memory_beats_smartmem(self, device, plan):
        g = _model()
        flash = FlashMemExecutor(device).run(g, plan)
        smem = PreloadExecutor(SMARTMEM, device).run(g, check_support=False)
        assert flash.avg_memory_bytes < smem.avg_memory_bytes

    def test_all_memory_released_at_end(self, device, plan):
        g = _model()
        result = FlashMemExecutor(device).run(g, plan)
        assert result.memory.totals[-1] == 0

    def test_no_rewriting_is_slower(self, device, plan):
        g = _model()
        with_rw = FlashMemExecutor(device, rewriting=True).run(g, plan)
        without = FlashMemExecutor(device, rewriting=False).run(g, plan)
        assert without.latency_ms > with_rw.latency_ms

    def test_branchy_style_slower_than_pipelined(self, device, plan):
        g = _model()
        pipelined = FlashMemExecutor(device, style=ExecStyle.PIPELINED).run(g, plan)
        branchy = FlashMemExecutor(device, style=ExecStyle.BRANCHY).run(g, plan)
        assert branchy.latency_ms > pipelined.latency_ms

    def test_warm_start_crossover(self, device, capacity, plan):
        """SmartMem eventually wins on many consecutive same-model runs
        (paper §5.2: after 3-12 iterations)."""
        g = _model(blocks=4)
        big_plan = LcOpgSolver(FAST).solve(g, capacity)
        for n in (1, 64):
            scenario = Scenario.prefill(n)
            flash = FlashMemExecutor(device).run(g, big_plan, scenario=scenario)
            smem = PreloadExecutor(SMARTMEM, device).run(g, check_support=False, scenario=scenario)
            if n == 1:
                assert flash.latency_ms < smem.latency_ms
            else:
                assert smem.latency_ms < flash.latency_ms

    def test_details_expose_plan_stats(self, device, plan):
        result = FlashMemExecutor(device).run(_model(), plan)
        assert 0.0 <= result.details["preload_ratio"] <= 1.0
        assert result.details["stall_ms"] >= 0
        assert result.details["preload_end_ms"] <= result.latency_ms

    def test_conv_weights_get_dedicated_transforms(self, device, capacity):
        g = _conv_model()
        conv_plan = LcOpgSolver(FAST).solve(g, capacity)
        result = FlashMemExecutor(device).run(g, conv_plan)
        assert result.details["dedicated_weights"] > 0
        assert result.details["winograd_ms"] > 0

    def test_energy_positive_and_bounded(self, device, plan):
        result = FlashMemExecutor(device).run(_model(), plan)
        assert result.energy_j > 0
        max_power = device.power.overlap_w
        assert result.energy_j <= max_power * result.latency_ms / 1e3 + 1e-9

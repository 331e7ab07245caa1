"""Tests for the FlashMem facade and configuration."""

import pytest

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.graph.builder import GraphBuilder
from repro.graph.ops import OpClass
from repro.gpusim.device import oneplus_12
from repro.opg.problem import OpgConfig
from repro.runtime.scenario import Scenario


def _model(blocks=2, dim=128, seq=16):
    b = GraphBuilder("facade-test")
    b.embedding(seq, 500, dim)
    for _ in range(blocks):
        b.transformer_block(seq, dim, 4)
    return b.finish()


def _fast(**kw) -> FlashMemConfig:
    base = dict(max_nodes_per_window=200, chunk_bytes=8 * 1024)
    base.update(kw)
    return FlashMemConfig(opg=OpgConfig(**base))


@pytest.fixture(scope="module")
def device():
    return oneplus_12()


class TestConfig:
    def test_presets(self):
        mem = FlashMemConfig.memory_priority()
        lat = FlashMemConfig.latency_priority()
        assert mem.opg.lam == 0.9
        assert lat.opg.lam > mem.opg.lam

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            FlashMemConfig(capacity_backend="transformer")


class TestCompile:
    @pytest.fixture(scope="class")
    def compiled(self, device):
        return FlashMem(_fast()).compile(_model(), device)

    def test_artifacts_present(self, compiled):
        assert compiled.plan.schedules
        assert len(compiled.bundle) == len(compiled.graph)
        assert compiled.fusion_report is not None

    def test_layout_ops_eliminated(self, compiled):
        assert all(n.op_class is not OpClass.LAYOUT for n in compiled.graph.nodes())

    def test_fusion_disabled_skips_report(self, device):
        cfg = _fast()
        cfg.use_adaptive_fusion = False
        compiled = FlashMem(cfg).compile(_model(), device)
        assert compiled.fusion_report is None

    def test_target_preload_ratio_forwarded(self, device):
        fm = FlashMem(_fast())
        low = fm.compile(_model(), device, target_preload_ratio=0.0)
        high = fm.compile(_model(), device, target_preload_ratio=0.9)
        assert high.preload_ratio > low.preload_ratio

    def test_gbt_backend_defaults_to_zoo_profile_set(self, device):
        """Without explicit profile_graphs, gbt trains over the model zoo
        via the read-through capacity cache (one train per process)."""
        cfg = _fast()
        cfg.capacity_backend = "gbt"
        capacity = FlashMem(cfg).capacity_model(device)
        assert capacity.backend == "gbt"
        assert capacity.report is not None and capacity.report.n_samples > 0
        # Second request is the in-process cached instance.
        assert FlashMem(cfg).capacity_model(device) is capacity

    def test_gbt_backend_end_to_end(self, device):
        cfg = _fast()
        cfg.capacity_backend = "gbt"
        fm = FlashMem(cfg)
        capacity = fm.capacity_model(device, profile_graphs=[_model()])
        result = fm.compile_and_run(_model(), device, capacity=capacity)
        assert result.latency_ms > 0


class TestRun:
    def test_compile_and_run(self, device):
        result = FlashMem(_fast()).compile_and_run(_model(), device)
        assert result.latency_ms > 0
        assert result.runtime == "FlashMem"
        assert result.memory.peak_bytes > 0

    def test_ablation_ordering(self, device):
        """Full pipeline <= no-rewriting <= ... on latency (Figure 7 shape)."""
        full_cfg = _fast()
        no_rw = _fast()
        no_rw.use_kernel_rewriting = False
        full = FlashMem(full_cfg).compile_and_run(_model(blocks=3), device)
        partial = FlashMem(no_rw).compile_and_run(_model(blocks=3), device)
        assert full.latency_ms <= partial.latency_ms

    def test_iterations_scale_streaming_phase(self, device):
        fm = FlashMem(_fast())
        compiled = fm.compile(_model(), device)
        one = fm.run(compiled, scenario=Scenario.prefill(1))
        four = fm.run(compiled, scenario=Scenario.prefill(4))
        assert four.latency_ms > one.latency_ms
        exec_one = one.latency_ms - one.details["preload_end_ms"]
        exec_four = four.latency_ms - four.details["preload_end_ms"]
        assert exec_four > 3 * exec_one  # streaming repeats per iteration

    def test_public_api_surface(self):
        import repro

        assert hasattr(repro, "FlashMem")
        assert hasattr(repro, "FlashMemConfig")
        assert hasattr(repro, "load_model")
        assert hasattr(repro, "oneplus_12")
        assert repro.__version__

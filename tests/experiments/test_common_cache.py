"""Tests for the experiment-level compilation/result caches."""

import pytest

from repro.experiments import common
from repro.opg.problem import OpgConfig


class TestCaches:
    def test_graph_cache_returns_same_object(self):
        a = common.cached_graph("ResNet50")
        b = common.cached_graph("ResNet50")
        assert a is b

    def test_capacity_cache_per_device(self):
        a = common.cached_capacity("OnePlus 12")
        b = common.cached_capacity("OnePlus 12")
        c = common.cached_capacity("Pixel 8")
        assert a is b
        assert a is not c

    def test_compile_cache_reused_by_results(self):
        compiled_a = common.cached_compile("ResNet50", "OnePlus 12")
        result_1 = common.flashmem_result("ResNet50", "OnePlus 12")
        compiled_b = common.cached_compile("ResNet50", "OnePlus 12")
        result_2 = common.flashmem_result("ResNet50", "OnePlus 12")
        assert compiled_a is compiled_b
        assert result_1 is result_2

    def test_framework_result_none_for_unsupported(self):
        assert common.framework_result("NCNN", "ViT", "OnePlus 12") is None

    def test_smartmem_runs_layout_eliminated_graph(self):
        from repro.graph.lowering import layout_op_count

        result = common.framework_result("SMem", "ViT", "OnePlus 12")
        raw = common.cached_graph("ViT")
        assert result is not None
        # SmartMem's exec kernel count excludes the layout ops MNN pays for.
        mnn = common.framework_result("MNN", "ViT", "OnePlus 12")
        assert layout_op_count(raw) > 0
        assert mnn is not None

    def test_clear_caches_resets(self):
        a = common.cached_graph("ResNet50")
        common.clear_caches()
        b = common.cached_graph("ResNet50")
        assert a is not b

    def test_experiment_config_overrides(self):
        cfg = common.experiment_flashmem_config(lookback=7, capacity_backend="gbt")
        assert cfg.opg == OpgConfig(lookback=7)  # other defaults preserved
        assert cfg.capacity_backend == "gbt"

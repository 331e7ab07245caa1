"""Tests for the dynamic-network extension (paper §3.2 future work)."""

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.graph.dynamic import (
    DynamicModel,
    PathVariant,
    early_exit_variants,
    plan_dynamic,
    run_dynamic,
)
from repro.gpusim.device import oneplus_12
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig
from repro.runtime.executor import FlashMemExecutor

FAST = OpgConfig(max_nodes_per_window=100, chunk_bytes=8 * 1024)


def _exit_builder(depth: int):
    """Early-exit transformer: identical prefix blocks + an exit head.

    Weight names are deterministic per block, so path prefixes share
    weights (the realistic dynamic-network structure).
    """
    b = GraphBuilder(f"dyn{depth}")
    b.embedding(16, 500, 128)
    for _ in range(depth):
        b.transformer_block(16, 128, 4)
    b.linear(16, 128, 10)
    return b.finish()


@pytest.fixture(scope="module")
def dynamic_model():
    return early_exit_variants(_exit_builder, exits=[1, 2, 3], probabilities=[0.5, 0.3, 0.2])


@pytest.fixture(scope="module")
def capacity():
    return analytic_capacity_model(oneplus_12())


class TestModelValidation:
    def test_probabilities_must_sum_to_one(self):
        g = _exit_builder(1)
        with pytest.raises(ValueError, match="sum"):
            DynamicModel("bad", [PathVariant("a", g, 0.5)])

    def test_probability_range(self):
        g = _exit_builder(1)
        with pytest.raises(ValueError):
            PathVariant("a", g, 0.0)

    def test_unique_names(self):
        g = _exit_builder(1)
        with pytest.raises(ValueError, match="unique"):
            DynamicModel("bad", [PathVariant("a", g, 0.5), PathVariant("a", g, 0.5)])

    def test_variant_lookup(self, dynamic_model):
        assert dynamic_model.variant("exit@2").probability == 0.3
        with pytest.raises(KeyError):
            dynamic_model.variant("exit@9")

    def test_early_exit_builder_shapes(self, dynamic_model):
        sizes = [len(v.graph) for v in dynamic_model.variants]
        assert sizes == sorted(sizes)


class TestDynamicPlanning:
    @pytest.fixture(scope="class")
    def dyn_plan(self, dynamic_model, capacity):
        return plan_dynamic(dynamic_model, LcOpgSolver(FAST), capacity)

    def test_plan_per_variant(self, dynamic_model, dyn_plan):
        assert set(dyn_plan.plans) == {v.name for v in dynamic_model.variants}

    def test_unified_preload_consistency(self, dynamic_model, dyn_plan):
        """Any unified-preload weight present in a variant is preloaded there."""
        for v in dynamic_model.variants:
            plan = dyn_plan.plan_for(v.name)
            present = {w.name for w, _ in v.graph.weights()}
            for name in dyn_plan.unified_preload & present:
                assert plan.schedules[name].preloaded, f"{v.name}: {name} not preloaded"

    def test_plans_validate(self, dynamic_model, dyn_plan, capacity):
        from repro.opg.problem import build_problem
        from repro.opg.validate import validate_plan

        for v in dynamic_model.variants:
            # Re-build each problem with the pinned hints the second pass used.
            plan = dyn_plan.plan_for(v.name)
            present = {w.name for w, _ in v.graph.weights()}
            from dataclasses import replace

            cfg = replace(FAST, preload_hint_weights=frozenset(dyn_plan.unified_preload & present))
            assert validate_plan(plan, build_problem(v.graph, capacity, cfg)) == []


class TestDynamicExecution:
    def test_expected_between_best_and_worst(self, dynamic_model, capacity):
        dyn_plan = plan_dynamic(dynamic_model, LcOpgSolver(FAST), capacity)
        result = run_dynamic(dynamic_model, dyn_plan, FlashMemExecutor(oneplus_12()))
        latencies = [r.latency_ms for _, r in result.outcomes.values()]
        assert min(latencies) <= result.expected_latency_ms <= max(latencies)
        assert result.worst_latency_ms == max(latencies)
        assert result.worst_peak_memory_bytes >= result.expected_avg_memory_bytes

    def test_deeper_paths_cost_more(self, dynamic_model, capacity):
        dyn_plan = plan_dynamic(dynamic_model, LcOpgSolver(FAST), capacity)
        result = run_dynamic(dynamic_model, dyn_plan, FlashMemExecutor(oneplus_12()))
        lat = {name: r.latency_ms for name, (_, r) in result.outcomes.items()}
        assert lat["exit@1"] < lat["exit@3"]

"""Failure-injection tests: corrupted inputs and hostile conditions.

The runtime should fail loudly on inconsistent artifacts (wrong-model
plans, truncated schedules) and degrade gracefully under hostile device
conditions (starved disk, tiny RAM) rather than silently mis-accounting.
"""

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.frameworks import SMARTMEM
from repro.runtime.preload import PreloadExecutor

FAST = OpgConfig(max_nodes_per_window=100, chunk_bytes=8 * 1024)


def _model(name="inj", blocks=2, dim=128):
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


class TestCorruptArtifacts:
    def test_wrong_model_plan_rejected(self, device, capacity):
        plan_small = LcOpgSolver(FAST).solve(_model(blocks=1), capacity)
        bigger = _model(blocks=3)
        with pytest.raises(ValueError, match="does not cover"):
            FlashMemExecutor(device).run(bigger, plan_small)

    def test_coverage_is_checked_per_graph(self, device, capacity):
        # A plan that ran on its own graph still fails on a bigger one: the
        # once-per-pair answer is not carried over to another graph.
        small = _model(blocks=1)
        plan = LcOpgSolver(FAST).solve(small, capacity)
        executor = FlashMemExecutor(device)
        executor.run(small, plan)
        with pytest.raises(ValueError, match="does not cover"):
            executor.run(_model(blocks=3), plan)
        executor.run(small, plan)

    def test_truncated_plan_rejected(self, device, capacity):
        g = _model()
        plan = LcOpgSolver(FAST).solve(g, capacity)
        plan.schedules.pop(next(iter(plan.schedules)))
        with pytest.raises(ValueError, match="does not cover"):
            FlashMemExecutor(device).run(g, plan)

    def test_json_roundtripped_plan_still_executes(self, device, capacity):
        from repro.opg.plan import OverlapPlan

        g = _model()
        plan = LcOpgSolver(FAST).solve(g, capacity)
        restored = OverlapPlan.from_json(plan.to_json())
        a = FlashMemExecutor(device).run(g, plan)
        b = FlashMemExecutor(device).run(g, restored)
        assert b.latency_ms == pytest.approx(a.latency_ms)
        assert b.peak_memory_bytes == a.peak_memory_bytes


class TestHostileDevices:
    def test_starved_disk_stretches_latency_not_memory(self, device, capacity):
        # Weight-heavy model so streaming dominates the timeline.
        g = _model("disk-bound", blocks=4, dim=512)
        plan = LcOpgSolver(FAST).solve(g, capacity)
        slow_disk = device.scaled(disk_bw=device.disk_bw / 50)
        fast = FlashMemExecutor(device).run(g, plan)
        slow = FlashMemExecutor(slow_disk).run(g, plan)
        assert slow.latency_ms > fast.latency_ms * 2
        # Streaming never buffers more just because the disk is slow.
        assert slow.peak_memory_bytes <= fast.peak_memory_bytes * 1.05

    def test_tiny_ram_flags_oom_without_crashing(self, capacity):
        tiny = oneplus_12().scaled(ram_bytes=128 * 1024 * 1024)
        g = _model()
        plan = LcOpgSolver(FAST).solve(g, capacity)
        result = FlashMemExecutor(tiny).run(g, plan)
        assert result.details.get("oom") == 1.0
        # Accounting still balances even past the budget.
        assert result.memory.totals[-1] == 0

    def test_preloader_oom_raises_when_asked(self, capacity):
        from repro.gpusim.memory import OutOfMemoryError

        tiny = oneplus_12().scaled(ram_bytes=128 * 1024 * 1024)
        with pytest.raises(OutOfMemoryError):
            PreloadExecutor(SMARTMEM, tiny).run(_model(), check_support=False, raise_on_oom=True)

    def test_oom_carries_diagnostics(self, capacity):
        """The raised error names the run's peak and the device budget."""
        from repro.gpusim.memory import OutOfMemoryError

        tiny = oneplus_12().scaled(ram_bytes=128 * 1024 * 1024)
        executor = PreloadExecutor(SMARTMEM, tiny)
        flagged = executor.run(_model(), check_support=False)
        with pytest.raises(OutOfMemoryError) as exc:
            executor.run(_model(), check_support=False, raise_on_oom=True)
        assert exc.value.requested == 0
        assert exc.value.in_use == flagged.peak_memory_bytes > tiny.ram_budget_bytes
        assert exc.value.budget == tiny.ram_budget_bytes
        assert "MB in use of" in str(exc.value)

    def test_zero_capacity_device_still_produces_valid_plan(self, device):
        """A device whose kernels have no slack forces everything to
        preload — the planner must degrade to full preloading, not fail."""
        from repro.opg.problem import build_problem
        from repro.opg.validate import validate_plan

        crippled = device.scaled(tm_upload_bw=1.0)  # ~zero streaming bandwidth
        capacity = analytic_capacity_model(crippled)
        g = _model()
        plan = LcOpgSolver(FAST).solve(g, capacity)
        assert validate_plan(plan, build_problem(g, capacity, FAST)) == []
        assert plan.preload_ratio > 0.9

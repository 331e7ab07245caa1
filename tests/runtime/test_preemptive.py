"""Tests for the preemptive-scheduling extension."""

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.frameworks import SMARTMEM
from repro.runtime.preemptive import flashmem_resume_factory, run_preemption_episode
from repro.runtime.preload import PreloadExecutor

FAST = OpgConfig(max_nodes_per_window=100, chunk_bytes=8 * 1024)


def _model(name, blocks=3, dim=256):
    b = GraphBuilder(name)
    b.embedding(32, 2000, dim)
    for _ in range(blocks):
        b.transformer_block(32, dim, 4)
    return b.finish()


@pytest.fixture(scope="module")
def setup():
    device = oneplus_12()
    capacity = analytic_capacity_model(device)
    victim_g = _model("victim", blocks=4)
    urgent_g = _model("urgent", blocks=1, dim=128)
    solver = LcOpgSolver(FAST)
    victim_plan = solver.solve(victim_g, capacity)
    urgent_plan = solver.solve(urgent_g, capacity)
    executor = FlashMemExecutor(device)
    flash_victim = lambda: executor.run(victim_g, victim_plan)
    flash_urgent = lambda: executor.run(urgent_g, urgent_plan)
    preloader = PreloadExecutor(SMARTMEM, device)
    smem_victim = lambda: preloader.run(victim_g, check_support=False)
    smem_urgent = lambda: preloader.run(urgent_g, check_support=False)
    return device, flash_victim, flash_urgent, smem_victim, smem_urgent


class TestEpisode:
    def test_rejects_bad_fraction(self, setup):
        _, fv, fu, *_ = setup
        with pytest.raises(ValueError):
            run_preemption_episode("x", fv, fu, preempt_fraction=1.5)

    def test_urgent_latency_counts_switch(self, setup):
        _, fv, fu, *_ = setup
        outcome = run_preemption_episode("FlashMem", fv, fu, switch_overhead_ms=7.0)
        assert outcome.urgent_start_delay_ms == 7.0
        assert outcome.urgent_completion_ms > 7.0

    def test_session_longer_than_sum_of_parts(self, setup):
        _, fv, fu, *_ = setup
        outcome = run_preemption_episode(
            "FlashMem", fv, fu,
            victim_resume=flashmem_resume_factory(fv, setup_ms=300.0),
        )
        assert outcome.session_ms > fv().latency_ms

    def test_flashmem_resume_cheaper_than_restart(self, setup):
        _, fv, fu, *_ = setup
        restart = run_preemption_episode("FlashMem-restart", fv, fu)
        resume = run_preemption_episode(
            "FlashMem-resume", fv, fu,
            victim_resume=flashmem_resume_factory(fv, setup_ms=300.0),
        )
        assert resume.session_ms < restart.session_ms

    def test_flashmem_preempts_with_less_memory_than_preloader(self, setup):
        _, fv, fu, sv, su = setup
        flash = run_preemption_episode(
            "FlashMem", fv, fu,
            victim_resume=flashmem_resume_factory(fv, setup_ms=300.0),
        )
        smem = run_preemption_episode("SMem", sv, su)
        # The preloader holds the victim's full weight set while the urgent
        # model initializes on top of it.
        assert smem.peak_memory_bytes > flash.peak_memory_bytes
        assert smem.session_ms > flash.session_ms

    def test_memory_timeline_well_formed(self, setup):
        _, fv, fu, *_ = setup
        outcome = run_preemption_episode(
            "FlashMem", fv, fu,
            victim_resume=flashmem_resume_factory(fv, setup_ms=300.0),
        )
        assert (outcome.memory.totals >= 0).all()
        assert (outcome.memory.times[1:] >= outcome.memory.times[:-1]).all()
        assert outcome.peak_memory_bytes == outcome.memory.peak_bytes

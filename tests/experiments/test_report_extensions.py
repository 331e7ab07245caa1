"""Tests for report rendering and the extension experiments."""

import pytest

from repro.experiments import ablations, appendix_fp32, background_texture
from repro.experiments.common import DEFAULT_DEVICE, cached_capacity, cached_graph
from repro.experiments.report import ratio, render_series, render_table
from repro.opg import lcopg
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig


class TestRendering:
    def test_alignment_and_headers(self):
        text = render_table(["A", "Long header"], [(1, 2.5), ("x", None)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Long header" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # every row padded to the same width

    def test_none_renders_dash(self):
        text = render_table(["A"], [(None,)])
        assert "-" in text.splitlines()[-1]

    def test_float_formatting(self):
        text = render_table(["A"], [(1234.5,), (12.34,), (1.234,), (0.0,)])
        body = text.splitlines()[2:]
        assert body[0].strip() == "1,234"
        assert body[1].strip() == "12.3"
        assert body[2].strip() == "1.23"
        assert body[3].strip() == "0"

    def test_render_series(self):
        text = render_series("S", [(0, 1), (1, 2)], x_label="t", y_label="v")
        assert "S" in text and "t" in text and "v" in text

    def test_ratio_helper(self):
        assert ratio(6.0, 3.0) == 2.0
        assert ratio(None, 3.0) is None
        assert ratio(3.0, 0.0) is None


class TestBackgroundTexture:
    def test_runs_and_brackets_romou(self):
        result = background_texture.run(width=64, height=64)
        assert len(result.comparisons) == 3
        assert 1.5 <= result.max_speedup <= 6.0
        assert "texture" in result.render().lower()


class TestAblations:
    @pytest.fixture(scope="class")
    def solved(self):
        """The study's result and the (config, use_cp) of every solve it ran."""
        solves = []
        solve = LcOpgSolver.solve

        def spy(solver, *args, **kwargs):
            solves.append((solver.config, solver.use_cp))
            return solve(solver, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LcOpgSolver, "solve", spy)
            return ablations.run(model="ResNet50"), solves

    @pytest.fixture(scope="class")
    def result(self, solved):
        return solved[0]

    def test_each_distinct_config_solved_once(self, solved):
        # CP-SAT, 512 KiB chunks and lookback 16 all name the default
        # config: one solve serves the three rows.
        result, solves = solved
        assert len(solves) == len(set(solves)) == len(result.rows) - 2
        rows = {(r.study, r.setting): r for r in result.rows}
        defaults = [rows[key] for key in
                    [("scheduler", "CP-SAT"), ("chunk_size", "512 KiB"), ("lookback", "16")]]
        assert len({(r.preload_pct, r.total_distance, r.solve_s, r.status) for r in defaults}) == 1

    def test_all_studies_present(self, result):
        studies = {r.study for r in result.rows}
        assert studies == {"scheduler", "chunk_size", "lookback", "window"}

    def test_greedy_does_less_work_than_cp(self, result, monkeypatch):
        # Deterministic work, not wall clocks: the SRPT floor closes most
        # CP windows without search, so CP and greedy solve times overlap.
        sched = {r.setting: r for r in result.study("scheduler")}
        assert sched["CP-SAT"].total_distance <= sched["greedy-only"].total_distance
        graph, capacity = cached_graph("ResNet50"), cached_capacity(DEFAULT_DEVICE)
        config = OpgConfig()
        greedy = LcOpgSolver(config, use_cp=False).solve(graph, capacity).stats
        assert greedy.nodes_explored == 0 and greedy.heuristic_windows > 0
        monkeypatch.setattr(lcopg, "srpt_distance_floor", lambda *a: None)
        assert LcOpgSolver(config).solve(graph, capacity).stats.nodes_explored > 0

    def test_coarse_chunks_hurt_streaming(self, result):
        chunks = {r.setting: r for r in result.study("chunk_size")}
        assert chunks["2048 KiB"].preload_pct >= chunks["128 KiB"].preload_pct


class TestAppendixFp32:
    def test_trends_hold_across_precision(self):
        result = appendix_fp32.run(models=["ViT"])
        fp16 = result.row("ViT", "fp16")
        fp32 = result.row("ViT", "fp32")
        assert fp16.speedup > 1.0 and fp32.speedup > 1.0
        assert fp32.flashmem_mb > fp16.flashmem_mb
        assert fp32.smem_ms > fp16.smem_ms

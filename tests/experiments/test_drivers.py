"""Integration tests for the experiment drivers.

Heavier drivers run on reduced model sets; the process-level cache in
``repro.experiments.common`` makes repeated driver calls cheap within the
module.  These tests assert the *shape* claims of the paper's evaluation —
who wins, in which direction — not absolute numbers.
"""

import pytest

from repro.experiments import (
    fig2,
    fig4,
    fig6,
    fig8,
    fig9,
    fig10,
    table1,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)

SMALL = ["ResNet50", "ViT"]


class TestMotivationAndCharacterization:
    def test_table1_transform_dominates(self):
        result = table1.run()
        assert len(result.rows) == 3
        for row in result.rows:
            # Table 1's motivation: init (load+trans) dominates inference.
            assert row.load_ms + row.trans_ms > row.infer_ms
            assert row.peak_mb > row.avg_mb
        assert "Table 1" in result.render()

    def test_table5_renders_three_classes(self):
        result = table5.run()
        assert len(result.class_rows) == 3
        caps = {op: mb for op, _, mb in result.measured_rows}
        assert caps["Matmul"] > caps["Add"] > caps["Softmax"] == 0

    def test_table6_matches_paper_within_tolerance(self):
        result = table6.run()
        assert len(result.rows) == 11
        for row in result.rows:
            assert row.built_params_m == pytest.approx(row.paper_params_m, rel=0.30)
            assert row.built_macs_g == pytest.approx(row.paper_macs_g, rel=0.30)


class TestSensitivityAndModel:
    def test_fig2_class_ordering(self):
        result = fig2.run()
        final = {c.op: c.points[-1][1] for c in result.curves}
        # Hierarchical ops suffer most per unit of streamed data relative to
        # their base latency; matmul crosses thresholds last (or never).
        t20 = {c.op: c.threshold_20 for c in result.curves}
        for hier in ("Softmax", "LayerNorm"):
            assert t20[hier] is not None
            assert t20["Matmul"] is None or t20["Matmul"] > t20[hier]
        assert all(delta >= 0 for c in result.curves for _, delta in c.points)

    def test_fig4_model_accurate(self):
        result = fig4.run(max_ops_per_model=8)
        assert result.holdout_mean_rel_error < 0.25
        assert set(result.per_class_rel_error) <= {"elemental", "reusable", "hierarchical"}


class TestHeadlineTables:
    def test_table7_flashmem_wins_cold_start(self):
        result = table7.run(models=SMALL)
        for row in result.rows:
            assert row.speedup_smem is not None and row.speedup_smem > 1.0
        assert result.geomean_speedup["SMem"] > 1.0

    def test_table7_support_matrix(self):
        result = table7.run(models=["ViT"])
        row = result.rows[0]
        assert row.baselines["NCNN"] is None  # ViT unsupported on NCNN
        assert row.baselines["MNN"] is not None

    def test_table8_flashmem_uses_least_memory(self):
        result = table8.run(models=SMALL)
        for row in result.rows:
            assert row.mem_redt is not None and row.mem_redt > 1.0
            for fw, mb in row.baselines.items():
                if mb is not None:
                    assert mb > row.flashmem_mb, f"{fw} beat FlashMem on {row.model}"


class TestBreakdownAndTradeoffs:
    def test_fig8_tradeoff_directions(self):
        result = fig8.run(models=["ViT"])
        series = result.series("ViT")
        ratios = [p.achieved_ratio for p in series]
        execs = [p.exec_ms for p in series]
        mems = [p.avg_memory_mb for p in series]
        assert ratios == sorted(ratios)
        # More preload -> faster execution phase, more resident memory.
        assert execs[-1] < execs[0]
        assert mems[-1] > mems[0]

    def test_fig9_naive_strategies_slower(self):
        result = fig9.run(models=["ViT", "GPTN-S"])
        for row in result.rows:
            assert row.always_next_slowdown >= 1.0
            assert row.same_next_slowdown >= 0.95  # never meaningfully faster
        assert max(r.always_next_slowdown for r in result.rows) > 1.2


class TestMultiModelEnergyPortability:
    def test_fig6_flashmem_bounds_session(self):
        result = fig6.run(iterations=2)
        assert result.mnn.peak_memory_bytes > result.flashmem.peak_memory_bytes
        assert result.mnn.total_ms > result.flashmem.total_ms
        assert result.peak_ratio > 1.5

    def test_table9_energy_savings(self):
        result = table9.run()
        for model in ("DeepViT",):
            for fw in ("MNN", "SMem"):
                saving = result.savings_vs(fw, model)
                assert saving is not None and saving > 0.5  # paper: 83-96%

    def test_fig10_oom_pattern(self):
        result = fig10.run(devices=["Pixel 8"], models=["ViT", "GPTN-1.3B"])
        by_model = {r.model: r for r in result.rows}
        assert by_model["GPTN-1.3B"].smem_oom       # SmartMem cannot init it
        assert not by_model["GPTN-1.3B"].flashmem_oom  # FlashMem streams it
        assert not by_model["ViT"].smem_oom

    def test_table4_solver_statuses(self):
        result = table4.run(models=["GPTN-S"])
        row = result.rows[0]
        assert row.status in ("OPTIMAL", "FEASIBLE")
        assert row.nodes <= table4.MAX_NODES_PER_WINDOW * row.cp_windows  # respects the budget
        assert f"budget {table4.MAX_NODES_PER_WINDOW} nodes per window" in result.render()
        assert row.floor_closed_windows > 0 and "Floor win" in result.render()

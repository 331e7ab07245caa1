"""Tests for the parallel sweep runner and cross-process cache behavior."""

import pickle
import tempfile

import pytest

from repro.core.store import ArtifactStore, active_store, swap_store
from repro.experiments import common, fleet
from repro.sweep.cells import Cell, driver_cells, primitive_cells
from repro.sweep.runner import SweepRunner
from repro.sweep.suite import run_suite


@pytest.fixture(autouse=True)
def _isolate_caches():
    common.clear_caches()
    yield
    common.clear_caches()
    swap_store(None)


class TestCells:
    def test_primitives_deduplicated_across_drivers(self):
        # Table 7 and Table 8 consume the identical grid.
        both = primitive_cells(["table7", "table8"])
        assert both == primitive_cells(["table7"])

    def test_flashmem_cells_scheduled_first(self):
        cells = primitive_cells(["table9"])
        kinds = [c.kind for c in cells]
        assert kinds == sorted(kinds, key=lambda k: k != "flashmem")
        assert "flashmem" in kinds and "framework" in kinds

    def test_drivers_without_primitives(self):
        assert primitive_cells(["table5", "fig2", "background_texture"]) == []
        assert [c.name for c in driver_cells(["table5", "fig2"])] == ["table5", "fig2"]


class TestRunner:
    def test_failed_cell_reported_sweep_continues(self, tmp_path):
        cells = [
            Cell("framework", "ViT", "OnePlus 12", "Bogus"),   # raises KeyError
            Cell("framework", "ViT", "OnePlus 12", "MNN"),
            Cell("unknown-kind", "x"),                          # raises ValueError
        ]
        report = SweepRunner(jobs=1, cache_dir=tmp_path).run(cells)
        assert len(report.outcomes) == 3
        assert len(report.failures) == 2
        errors = {o.cell.label(): o.error for o in report.failures}
        assert any("KeyError" in e for e in errors.values())
        ok = [o for o in report.outcomes if o.ok]
        assert [o.cell.runtime for o in ok] == ["MNN"]

    def test_parallel_merge_is_deterministic(self, tmp_path):
        cells = [
            Cell("framework", m, "OnePlus 12", fw)
            for m in ("ViT", "ResNet50")
            for fw in ("MNN", "SMem", "LiteRT")
        ]
        report = SweepRunner(jobs=2, cache_dir=tmp_path).run(cells)
        assert [o.cell for o in report.outcomes] == sorted(cells)
        assert not report.failures
        # Each cell persists its run exactly once, and nothing else: kernel
        # pricing tables stay in the in-process LRU.
        assert len(list((tmp_path / "framework-run").glob("*.pkl"))) == len(cells)
        assert report.store_totals()["stores"] == len(cells)
        assert not (tmp_path / "pricing-table").exists()

    def test_inline_run_restores_previous_store(self, tmp_path):
        sentinel = swap_store(None)
        assert sentinel is None
        SweepRunner(jobs=1, cache_dir=tmp_path).run(
            [Cell("framework", "ViT", "OnePlus 12", "MNN")]
        )
        assert active_store() is None

    def test_context_manager_closes_pool_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with SweepRunner(jobs=2, cache_dir=tmp_path) as runner:
                runner.prewarm(barrier_s=0.01)
                assert runner._pool is not None
                raise RuntimeError("boom")
        assert runner._pool is None  # close() ran on the exception path

    def test_no_cache_bypasses_store(self, tmp_path):
        report = SweepRunner(jobs=1, cache_dir=None).run(
            [Cell("framework", "ViT", "OnePlus 12", "MNN")]
        )
        assert not report.failures
        # The persistent store is off; the in-process pricing LRU still counts.
        assert report.cache_line().startswith("cache: disabled (--no-cache)")
        assert "pricing tables:" in report.cache_line()
        assert not list(tmp_path.rglob("*.pkl"))
        assert report.store_totals() == {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}


class TestCrossProcessCache:
    def test_worker_artifacts_reused_bit_for_bit(self, tmp_path):
        """Results computed in pool workers are reloaded identically here."""
        cells = [Cell("flashmem", "ResNet50", "OnePlus 12", "FlashMem"),
                 Cell("framework", "ResNet50", "OnePlus 12", "SMem")]
        report = SweepRunner(jobs=2, cache_dir=tmp_path).run(cells)
        assert not report.failures
        assert report.store_totals()["stores"] >= 2  # compiled + runs persisted

    def test_warm_reuse_returns_identical_results(self, tmp_path):
        # Cold: computed inline, persisted.
        cold = SweepRunner(jobs=1, cache_dir=tmp_path).run(
            [Cell("flashmem", "ResNet50", "OnePlus 12", "FlashMem")]
        )
        assert not cold.failures and cold.store_totals()["stores"] >= 1
        # Warm: fresh in-process caches, everything served from the store.
        common.clear_caches()
        swap_store(ArtifactStore(tmp_path))
        warm_result = common.flashmem_result("ResNet50", "OnePlus 12")
        direct = active_store().load(
            common.flashmem_run_key("ResNet50", "OnePlus 12", common.PREFILL_ONCE)
        )
        assert pickle.dumps(warm_result) == pickle.dumps(direct)
        assert active_store().stats.hits >= 1
        assert active_store().stats.stores == 0


class TestSuite:
    def test_suite_writes_results_and_caches_renders(self, tmp_path):
        cache = tmp_path / "cache"
        out_cold = tmp_path / "cold"
        out_warm = tmp_path / "warm"
        names = ["table5", "background_texture"]
        cold = run_suite(names, jobs=1, cache_dir=cache, results_dir=out_cold)
        assert cold.ok
        assert not any(o.cache_hit for o in cold.drivers.outcomes)
        assert sorted(p.name for p in cold.written) == ["background_texture.txt", "table5.txt"]
        assert "Table 5" in (out_cold / "table5.txt").read_text()
        assert "cache:" in cold.summary()

        common.clear_caches()
        warm = run_suite(names, jobs=1, cache_dir=cache, results_dir=out_warm)
        assert warm.ok
        assert all(o.cache_hit for o in warm.drivers.outcomes)
        for name in names:
            assert (out_cold / f"{name}.txt").read_bytes() == (out_warm / f"{name}.txt").read_bytes()

    def test_fleet_render_ends_in_one_newline(self, tmp_path, monkeypatch):
        # One short MNN cell keeps the driver cheap; the render's layout
        # does not depend on the grid or the trace length.
        monkeypatch.setattr(fleet, "DURATION_S", 20.0)
        monkeypatch.setattr(fleet, "DEVICES", ("OnePlus 12",))
        monkeypatch.setattr(fleet, "RUNTIMES", ("MNN",))
        report = run_suite(["fleet"], jobs=1, cache_dir=None, results_dir=tmp_path)
        assert report.ok
        text = (tmp_path / "fleet.txt").read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_suite_survives_failing_driver(self, tmp_path):
        # An unknown driver name fails at import time inside the cell.
        report = run_suite(["table5", "definitely_not_a_driver"], jobs=1,
                           cache_dir=tmp_path / "cache")
        assert not report.ok
        assert len(report.drivers.failures) == 1
        assert report.text_for("table5") is not None
        assert "FAIL" in report.summary()

    def test_pooled_run_without_store_warms_a_temporary_one(self, tmp_path, monkeypatch):
        """``cache_dir=None`` with a pool still shares the warm cells between
        workers, and leaves no store behind."""
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        report = run_suite(["table1"], jobs=2, cache_dir=None)
        assert report.ok
        assert report.primitives is not None
        assert len(report.primitives.outcomes) == 3 and not report.primitives.failures
        assert "warm phase: 3 primitive cells" in report.summary()
        assert report.store_totals()["hits"] >= 3  # the driver read the warm cells
        assert list(scratch.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tmp"]

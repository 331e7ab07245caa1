"""Tests for the population fan-out (inline and pooled paths)."""

from repro.fleet.population import run_fleet
from repro.fleet.replay import replay_trace
from repro.fleet.trace import Trace, generate_trace
from repro.runtime.scenario import Scenario

MIX = (("ViT", Scenario.prefill(1), 1, 1.0), ("ResNet50", Scenario.prefill(1), 0, 1.0))


def test_inline_run_does_not_serialize_trace(monkeypatch):
    trace = generate_trace(seed=2, duration_s=30, rate_per_min=30, mix=MIX, name="inline")
    expected = [
        replay_trace(trace, "OnePlus 12", runtime).canonical_json()
        for runtime in ("FlashMem", "MNN")
    ]

    def refuse(self):
        raise AssertionError("inline run_fleet serialized the trace")

    monkeypatch.setattr(Trace, "to_json", refuse)
    report = run_fleet(trace, ["OnePlus 12"], ["FlashMem", "MNN"], jobs=1)
    assert report.jobs == 1
    assert [cell.canonical_json() for cell in report.cells] == expected


def test_pooled_run_persists_episodes(tmp_path):
    """Pool workers write the one shared store: a second pooled run
    simulates nothing, and pooled cells equal inline cells."""
    trace = generate_trace(seed=3, duration_s=30, rate_per_min=30, mix=MIX, name="pooled")
    grid = (["OnePlus 12", "Pixel 8"], ["FlashMem", "MNN"])
    inline = run_fleet(trace, *grid, jobs=1)
    first = run_fleet(trace, *grid, jobs=2, cache_dir=tmp_path)
    second = run_fleet(trace, *grid, jobs=2, cache_dir=tmp_path)
    assert first.jobs == second.jobs == 2
    assert first.episodes_simulated > 0
    assert second.episodes_simulated == 0
    expected = [cell.canonical_json() for cell in inline.cells]
    assert [cell.canonical_json() for cell in first.cells] == expected
    assert [cell.canonical_json() for cell in second.cells] == expected
    assert not (tmp_path / "worker-local").exists()

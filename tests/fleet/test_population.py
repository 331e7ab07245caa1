"""Tests for the population fan-out (inline path)."""

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

"""A plan is a pure function of graph, device, config and code.

Every LC-OPG search is bounded by work (nodes per CP window, nodes in the
prover), never by the clock, so a slower machine — modelled here by a
``time.perf_counter`` that runs 40× fast — must compile byte-identical
plans.
"""

import time

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.core.flashmem import FlashMem
from repro.experiments.common import experiment_flashmem_config
from repro.gpusim.device import get_device
from repro.graph.models import load_model

#: How much faster than real time the patched clock runs.
CLOCK_SPEEDUP = 40.0


def _plan_json(model: str) -> str:
    device = get_device("OnePlus 12")
    compiled = FlashMem(experiment_flashmem_config()).compile(
        load_model(model), device, capacity=analytic_capacity_model(device)
    )
    return compiled.plan.canonical_json()


@pytest.mark.parametrize("model", ["GPTN-2.7B", "ViT"])
def test_plan_independent_of_clock_speed(model, monkeypatch):
    expected = _plan_json(model)
    real = time.perf_counter
    origin = real()
    monkeypatch.setattr(time, "perf_counter", lambda: origin + (real() - origin) * CLOCK_SPEEDUP)
    assert _plan_json(model) == expected

"""Differential tests: steady-state iteration replay is exact.

The segment core records iteration 1 as an instruction trace and, when it
is alloc/free balanced, replays the trace for iterations >= 2 instead of
re-simulating — re-executing the *same* float operations on raw queue
columns and the delta log's columns.  The claim is byte-identity,
not approximation: every ``RunResult`` field except the volatile
wall-clock counters must equal a run that simulates every pass
(``tests/oracles/sim.py``), for FlashMem and for the MNN preloading
baseline.

Compiles here use a reduced solver budget — plan quality is irrelevant to
the equivalence property, only that both runs share one plan.
"""

import pytest

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.gpusim.device import get_device
from repro.graph.models import load_model
from repro.opg.problem import OpgConfig
from repro.runtime.scenario import Scenario
from tests.runtime.identity import (
    RUNTIMES,
    assert_results_identical,
    replay_on_off,
    run,
    runtime_cases,
    tables_by_replay,
)

MODELS = ("ViT", "GPTN-S", "ResNet50")
DEVICES = ("OnePlus 12", "Pixel 8")
ITERATION_COUNTS = (1, 2, 7)


@pytest.fixture(scope="module")
def fm():
    return FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300)))


@pytest.fixture(scope="module")
def graphs():
    return {model: load_model(model) for model in MODELS}


@pytest.fixture(scope="module")
def compiled_models(session_compile):
    return {
        (model, device_name): session_compile(model, device_name)
        for model in MODELS
        for device_name in DEVICES
    }


@pytest.mark.parametrize(
    "runtime, iterations, device_name, model",
    runtime_cases([(i, d, m) for i in ITERATION_COUNTS for d in DEVICES for m in MODELS]),
)
def test_extrapolation_byte_identical(
    monkeypatch, fm, graphs, compiled_models, runtime, iterations, device_name, model
):
    compiled = compiled_models[(model, device_name)]
    scenario = Scenario.prefill(iterations)
    fast, full = replay_on_off(
        monkeypatch, lambda: run(runtime, fm, compiled, graphs[model], scenario)
    )
    assert_results_identical(fast, full)
    replayed = fast.details.get("replayed_iterations", 0.0)
    if runtime != "FlashMem" or not compiled.plan.streamed_weights:
        # A pure-compute segment replays every pass from its durations.
        assert replayed == iterations
    elif iterations > 2:
        # Pass 0 runs the dedicated transforms, pass 1 is recorded, and
        # every later pass must actually have been replayed.
        assert replayed == iterations - 2
    else:
        assert replayed == 0.0


def test_extrapolation_composes_with_scalar_pricing(monkeypatch, fm, graphs, compiled_models):
    """All four (tables, replay) combinations agree bitwise, on both
    runtimes."""
    compiled = compiled_models[("ViT", "OnePlus 12")]
    for runtime in RUNTIMES:
        results = tables_by_replay(
            monkeypatch,
            lambda: run(runtime, fm, compiled, graphs["ViT"], Scenario.prefill(6)),
        )
        reference = results[0]
        for other in results[1:]:
            assert_results_identical(other, reference)


@pytest.fixture(scope="module")
def rewriting_compiles(session_compile):
    """Compiles per (model, rewriting), built on first use; rewriting is
    the default, so those are the session's shared compiles."""
    cache = {}

    def compiled(model, rewriting):
        if (model, rewriting) not in cache:
            fm = FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300),
                                         use_kernel_rewriting=rewriting))
            cache[model, rewriting] = fm, (
                session_compile(model, "Pixel 8") if rewriting
                else fm.compile(load_model(model), get_device("Pixel 8")))
        return cache[model, rewriting]

    return compiled


@pytest.mark.parametrize("rewriting", [True, False], ids=["rewriting", "opg-only"])
@pytest.mark.parametrize("iterations", [4, 9])
@pytest.mark.parametrize("model", ["ViT", "ResNet50", "GPTN-S", "SAM-2", "DeepViT"])
def test_replay_exact_in_both_rewriting_modes(
    monkeypatch, rewriting_compiles, model, iterations, rewriting
):
    """Without rewriting, chunks move in dedicated transform kernels: the
    replayed trace's GPU queue interleaves transforms with compute."""
    fm, compiled = rewriting_compiles(model, rewriting)
    scenario = Scenario.prefill(iterations)
    fast, full = replay_on_off(monkeypatch, lambda: fm.run(compiled, scenario=scenario))
    assert_results_identical(fast, full)
    if compiled.plan.streamed_weights:
        assert fast.details["replayed_iterations"] == iterations - 2

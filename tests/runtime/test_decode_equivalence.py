"""Differential tests: decode steady-state replay is exact.

The segment core records one token of each context-length segment (its
first, or token 1 in the segment that starts at token 0) as an
instruction trace and replays it for the segment's remaining tokens; a
pure-compute segment replays all of them.  As with prefill replay, the
claim is byte-identity, not approximation: every ``RunResult`` field
except the volatile wall-clock counters must agree with replay disabled,
across the whole breakpoint structure (growing KV, the growing->capped
transition, and the capped steady state), on both runtimes: FlashMem's
planned residency and the MNN baseline's unbounded unified-memory cache.
The "replay disabled" side swaps in the every-pass reference from
``tests/oracles/sim.py``.
"""

import pytest

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.gpusim.device import get_device
from repro.graph.models import load_decode_model
from repro.opg.problem import OpgConfig
from repro.runtime.frameworks import get_profile
from repro.runtime.preload import PreloadExecutor
from repro.runtime.scenario import Scenario
from tests.runtime.identity import (
    RUNTIMES,
    assert_results_identical,
    replay_on_off,
    run,
    runtime_cases,
    tables_by_replay,
)

MODELS = ("GPTN-S", "GPTN-1.3B")
DEVICES = ("OnePlus 12", "Pixel 8")
CONTEXT = 512
TOKENS = 40  # several breakpoints deep at tile_tokens=256


@pytest.fixture(scope="module")
def fm():
    return FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300)))


@pytest.fixture(scope="module")
def graphs():
    return {model: load_decode_model(model, context_len=CONTEXT) for model in MODELS}


@pytest.fixture(scope="module")
def compiled_models(fm):
    return {
        (model, device_name): fm.compile(
            load_decode_model(model, context_len=CONTEXT), get_device(device_name)
        )
        for model in MODELS
        for device_name in DEVICES
    }


@pytest.mark.parametrize(
    "runtime, device_name, model", runtime_cases([(d, m) for d in DEVICES for m in MODELS])
)
def test_decode_extrapolation_byte_identical(
    monkeypatch, fm, graphs, compiled_models, runtime, device_name, model
):
    compiled = compiled_models[(model, device_name)]
    scenario = Scenario.decode(tokens=TOKENS, context_len=CONTEXT)
    fast, full = replay_on_off(
        monkeypatch, lambda: run(runtime, fm, compiled, graphs[model], scenario)
    )
    assert_results_identical(fast, full)
    # The MNN cell is one 40-token segment (its first tile crossing is at
    # token 256), so replay must engage there too.
    assert fast.details["replayed_tokens"] > 0
    assert full.details["replayed_tokens"] == 0
    assert fast.details["tokens"] == TOKENS


@pytest.mark.parametrize("runtime, tokens", runtime_cases([(t,) for t in (1, 2, 3, 5)]))
def test_short_decodes_byte_identical(monkeypatch, fm, graphs, compiled_models, runtime, tokens):
    """Below/at the trace-recording threshold replay must not mis-engage."""
    compiled = compiled_models[("GPTN-S", "OnePlus 12")]
    scenario = Scenario.decode(tokens=tokens, context_len=CONTEXT)
    fast, full = replay_on_off(
        monkeypatch, lambda: run(runtime, fm, compiled, graphs["GPTN-S"], scenario)
    )
    assert_results_identical(fast, full)


def test_decode_composes_with_scalar_pricing(monkeypatch, fm, graphs, compiled_models):
    """All four (cost tables, replay) combinations agree bitwise, on both
    runtimes."""
    compiled = compiled_models[("GPTN-S", "OnePlus 12")]
    scenario = Scenario.decode(tokens=24, context_len=CONTEXT)
    for runtime in RUNTIMES:
        results = tables_by_replay(
            monkeypatch, lambda: run(runtime, fm, compiled, graphs["GPTN-S"], scenario)
        )
        reference = results[0]
        for other in results[1:]:
            assert_results_identical(other, reference)


def test_spilled_decode_composes_with_scalar_pricing(monkeypatch):
    """A KV budget of one tile streams the older tiles from disk, the
    attention pricing path the resident cases never take."""
    fm = FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300,
                                               kv_budget_fraction=1e-4)))
    compiled = fm.compile(load_decode_model("GPTN-S", context_len=CONTEXT),
                          get_device("OnePlus 12"))
    assert compiled.plan.kv_plan.resident_tiles == 1
    scenario = Scenario.decode(tokens=TOKENS, context_len=CONTEXT)
    results = tables_by_replay(monkeypatch, lambda: fm.run(compiled, scenario=scenario))
    assert results[0].details["kv_spilled_bytes"] > 0
    for other in results[1:]:
        assert_results_identical(other, results[0])


def test_streamed_weight_decode_byte_identical(monkeypatch, fm):
    """Forcing a partial preload exercises the streamed-weight decode path
    (per-token disk refetches) — replay must stay exact there too."""
    compiled = fm.compile(
        load_decode_model("GPTN-S", context_len=CONTEXT),
        get_device("OnePlus 12"),
        target_preload_ratio=0.6,
    )
    assert compiled.preload_ratio < 1.0
    scenario = Scenario.decode(tokens=TOKENS, context_len=CONTEXT)
    fast, full = replay_on_off(monkeypatch, lambda: fm.run(compiled, scenario=scenario))
    assert_results_identical(fast, full)


def test_zero_context_decode(monkeypatch, fm, compiled_models):
    """Generation from an empty prompt starts with an empty cache."""
    compiled = compiled_models[("GPTN-S", "OnePlus 12")]
    scenario = Scenario.decode(tokens=12)
    fast, full = replay_on_off(monkeypatch, lambda: fm.run(compiled, scenario=scenario))
    assert_results_identical(fast, full)


def test_decode_needs_kv_plan(fm):
    """A prefill-compiled model cannot run the decode scenario."""
    from repro.graph.models import load_model

    compiled = fm.compile(load_model("ViT"), get_device("OnePlus 12"))
    with pytest.raises(ValueError, match="KV residency plan"):
        fm.run(compiled, scenario=Scenario.decode(tokens=4))


def test_preload_baseline_decode_grows_unbounded(fm, compiled_models):
    """The baseline's KV cache grows with context; FlashMem's stays capped."""
    executor = PreloadExecutor(get_profile("MNN"), get_device("OnePlus 12"))
    short_g = load_decode_model("GPTN-S", context_len=512)
    long_g = load_decode_model("GPTN-S", context_len=4096)
    short = executor.run(short_g, scenario=Scenario.decode(tokens=8, context_len=512),
                         check_support=False)
    long = executor.run(long_g, scenario=Scenario.decode(tokens=8, context_len=4096),
                        check_support=False)
    assert long.peak_memory_bytes > short.peak_memory_bytes
    fm_short = fm.run(
        compiled_models[("GPTN-S", "OnePlus 12")],
        scenario=Scenario.decode(tokens=8, context_len=512),
    )
    kv_plan = compiled_models[("GPTN-S", "OnePlus 12")].plan.kv_plan
    assert fm_short.details["kv_resident_bytes"] <= kv_plan.budget_bytes

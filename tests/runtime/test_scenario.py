"""Scenario API: validation, the CLI registry, and executor hand-off."""

import warnings

import pytest

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.gpusim.device import get_device
from repro.graph.models import load_model
from repro.opg.problem import OpgConfig
from repro.runtime.scenario import Scenario, available_scenarios, make_scenario

MODEL = "ViT"
DEVICE = "OnePlus 12"


@pytest.fixture(scope="module")
def fm():
    return FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300)))


@pytest.fixture(scope="module")
def compiled(fm):
    return fm.compile(load_model(MODEL), get_device(DEVICE))


# ------------------------------------------------------------- construction
def test_prefill_factory_defaults():
    s = Scenario.prefill()
    assert s.kind == "prefill" and s.iterations == 1 and not s.is_decode


def test_decode_factory():
    s = Scenario.decode(tokens=32, context_len=512)
    assert s.is_decode and s.tokens == 32 and s.context_len == 512


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="prefill", iterations=0),
        dict(kind="prefill", tokens=4),
        dict(kind="prefill", context_len=4),
        dict(kind="decode"),
        dict(kind="decode", tokens=0),
        dict(kind="decode", tokens=4, context_len=-1),
        dict(kind="decode", tokens=4, iterations=2),
        dict(kind="warmup"),
    ],
)
def test_invalid_combinations_rejected(kwargs):
    with pytest.raises(ValueError):
        Scenario(**kwargs)


def test_scenarios_are_hashable_values():
    assert Scenario.prefill(3) == Scenario.prefill(3)
    assert len({Scenario.prefill(3), Scenario.prefill(3)}) == 1
    assert Scenario.prefill(1).cache_key() != Scenario.decode(tokens=1).cache_key()


def test_registry_backs_the_cli():
    kinds = available_scenarios()
    assert set(kinds) == {"prefill", "decode"}
    assert make_scenario("prefill", iterations=4) == Scenario.prefill(4)
    assert make_scenario("decode", tokens=8, context_len=16) == Scenario.decode(
        tokens=8, context_len=16
    )
    with pytest.raises(ValueError):
        make_scenario("decode")  # tokens required
    with pytest.raises(ValueError):
        make_scenario("prefill", tokens=8)
    with pytest.raises(ValueError):
        make_scenario("chat")


# ------------------------------------------------------------------ executors
def test_flashmem_scenario_does_not_warn(fm, compiled):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        fm.run(compiled, scenario=Scenario.prefill(2))

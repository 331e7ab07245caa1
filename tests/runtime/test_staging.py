"""Bulk weight staging against the one-weight-at-a-time reference.

``PreloadExecutor._init`` and ``FlashMemExecutor._preload`` stage their
weights through ``segment.stage_weights``: load ends from one
``np.add.accumulate``, transform starts from the GPU ``max`` rule in one
loop over floats, queue rows, busy totals, memory rows and pool
registrations added as columns.  The references in ``tests/oracles/sim.py``
are the per-weight loops it replaced (two ``submit_fast`` calls and 2-4
pool operations per weight).  Both must leave the same queue clocks, busy
intervals and totals by kind, queue rows as merged spans (labels aside),
live pool maps and timeline columns, bit for bit, for every framework
profile and for FlashMem plans from preloading nothing to preloading
everything.
"""

import dataclasses

import pytest

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.gpusim.device import get_device
from repro.gpusim.engine import Simulation
from repro.graph.models import load_model
from repro.opg.problem import OpgConfig
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.frameworks import BASELINE_ORDER, SMARTMEM, get_profile
from repro.runtime.preload import PreloadExecutor
from repro.runtime.scenario import Scenario
from repro.runtime.segment import SegmentCore
from tests.oracles import init_every_weight, preload_every_weight
from tests.runtime.identity import assert_results_identical, spans

DEVICE = get_device("Pixel 8")
#: ResNet50 stages Winograd convolutions (scratch rows), GPTN-S does not.
MODELS = ("ResNet50", "GPTN-S")
KINDS = ("setup", "load", "transform", "compute")

#: Every built-in profile, plus SmartMem batch-freeing its staged copies at
#: the end of init (the one staging mode no built-in profile uses).
PROFILES = [get_profile(name) for name in BASELINE_ORDER] + [
    dataclasses.replace(SMARTMEM, name="SMem-batch-free", free_um_at_init_end=True)
]


@pytest.fixture(scope="module")
def graphs():
    return {model: load_model(model).freeze() for model in MODELS}


def _state(sim, end_ms):
    """Everything staging leaves behind, as exact bits."""
    queues = []
    for queue in (sim.queues.io, sim.queues.gpu):
        _, starts, ends, kinds = queue.replay_columns()
        queues.append((
            [(a.hex(), b.hex(), kind) for a, b, kind in spans(zip(starts, ends, kinds))],
            [(a.hex(), b.hex()) for a, b in queue.busy_intervals()],
            queue.free_at.hex(), queue.busy_time_ms().hex(),
            [queue.busy_time_ms(kind=kind).hex() for kind in KINDS],
        ))
    timeline = sim.build_timeline()
    return (
        end_ms.hex(), queues,
        [(pool._live, pool.in_use) for pool in (sim.um, sim.tm)],
        timeline.times.tobytes(), timeline.totals.tobytes(),
        dataclasses.astuple(sim.phases),
    )


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_preload_init_matches_every_weight(graphs, profile, model):
    executor = PreloadExecutor(profile, DEVICE)
    states = []
    for init in (PreloadExecutor._init, init_every_weight):
        sim = Simulation(DEVICE, model=model, runtime=profile.name)
        states.append(_state(sim, init(executor, sim, graphs[model])))
    assert states[0] == states[1]


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("model", MODELS)
def test_flashmem_preload_matches_every_weight(session_compile, model, ratio):
    compiled = session_compile(model, DEVICE.name, ratio)
    executor = FlashMemExecutor(DEVICE)
    states = []
    for preload in (FlashMemExecutor._preload, preload_every_weight):
        sim = Simulation(DEVICE, model=model, runtime="FlashMem")
        core = SegmentCore(sim, compiled.graph, compiled.plan)
        states.append(_state(sim, preload(executor, sim, compiled.plan, core)))
    assert states[0] == states[1]
    if ratio == 1.0:
        assert states[0][1][0][0]  # the whole set W was staged


@pytest.mark.parametrize("model", MODELS)
def test_whole_runs_match_every_weight_staging(monkeypatch, graphs, session_compile, model):
    """End to end: a run staging in bulk equals one staging per weight."""
    compiled = session_compile(model, DEVICE.name, 0.5)
    fm = FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300)))
    baseline = PreloadExecutor(get_profile("SMem"), DEVICE)

    def runs():
        scenario = Scenario.prefill(3)
        return (fm.run(compiled, scenario=scenario),
                baseline.run(graphs[model], scenario=scenario, check_support=False))

    bulk = runs()
    monkeypatch.setattr(FlashMemExecutor, "_preload", preload_every_weight)
    monkeypatch.setattr(PreloadExecutor, "_init", init_every_weight)
    for fast, reference in zip(bulk, runs()):
        assert_results_identical(fast, reference)


def test_double_allocation_still_raises(graphs):
    """Registering a staged name that is already live fails as a
    one-at-a-time allocation would."""
    sim = Simulation(DEVICE, model="ResNet50", runtime="SMem")
    name = graphs["ResNet50"].weights()[0][0].name
    sim.alloc_tm(name + ".tex", 1, 0.0)
    with pytest.raises(ValueError, match="already allocated"):
        PreloadExecutor(get_profile("SMem"), DEVICE)._init(sim, graphs["ResNet50"])

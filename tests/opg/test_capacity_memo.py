"""LC-OPG's per-compile capacity memo answers what the capacity model would.

``LcOpgSolver`` remembers each node spec's chunk capacity by spec identity,
per (capacity model, chunk size), for its own lifetime.  Adaptive fusion
rebuilds the graph around the same spec objects after every round of
splits, so a re-solve queries the capacity model for the split halves only.
These tests hold the memo to a fresh ``capacity_chunks_batch`` at every
solve, and check that nothing leaks between capacity models or chunk sizes.
"""

import gc
import weakref

import pytest

from repro import FlashMem, load_model
from repro.capacity.model import analytic_capacity_model
from repro.experiments.common import experiment_flashmem_config
from repro.fusion.fuser import fuse_graph
from repro.gpusim.device import get_device
from repro.opg import lcopg
from repro.opg.lcopg import LcOpgSolver

CONFIG = experiment_flashmem_config()
ONEPLUS, PIXEL = get_device("OnePlus 12"), get_device("Pixel 8")


def _fresh_chunks(device, graph, chunk_bytes):
    specs = [n.spec for n in graph.nodes()]
    return analytic_capacity_model(device).capacity_chunks_batch(specs, chunk_bytes)


@pytest.mark.parametrize("model", ["ViT", "GPTN-2.7B"])
def test_every_fusion_iteration_sees_fresh_capacities(monkeypatch, model):
    solves = []  # (graph, chunks the solver assembled its problem from)
    assemble = lcopg.assemble_problem

    def spy(graph, chunked, config):
        solves.append((graph, list(chunked)))
        return assemble(graph, chunked, config)

    monkeypatch.setattr(lcopg, "assemble_problem", spy)
    capacity = analytic_capacity_model(ONEPLUS)
    queried = []  # the specs of every capacity_chunks_batch call
    batch = capacity.capacity_chunks_batch

    def counting_batch(ops, chunk_bytes):
        queried.append(list(ops))
        return batch(ops, chunk_bytes)

    capacity.capacity_chunks_batch = counting_batch
    compiled = FlashMem(CONFIG).compile(load_model(model), ONEPLUS, capacity=capacity)

    assert compiled.fusion_report.iterations >= 3
    assert len(solves) == compiled.fusion_report.iterations + 1
    assert len(queried) == len(solves)
    chunk_bytes = CONFIG.opg.chunk_bytes
    seen = set()
    for (graph, chunks), asked in zip(solves, queried):
        assert chunks == _fresh_chunks(ONEPLUS, graph, chunk_bytes)
        # Only specs no earlier solve held reach the capacity model: after
        # the first solve, the heads and tails of that round's splits.
        specs = [n.spec for n in graph.nodes()]
        assert [id(s) for s in asked] == [id(s) for s in specs if id(s) not in seen]
        seen.update(id(s) for s in specs)
    assert all(len(asked) < len(solves[0][1]) // 4 for asked in queried[1:])


def test_one_solver_across_devices_plans_like_fresh_solvers():
    graph = fuse_graph(load_model("GPTN-S"))
    models = [analytic_capacity_model(ONEPLUS), analytic_capacity_model(PIXEL)]
    shared = LcOpgSolver(CONFIG.opg)
    plans = [shared.solve(graph, m).canonical_json() for m in models]
    fresh = [LcOpgSolver(CONFIG.opg).solve(graph, m).canonical_json() for m in models]
    assert plans == fresh
    assert plans[0] != plans[1]  # the devices' capacities differ on this graph
    # Back to the first model: its entries were kept apart, not overwritten.
    assert shared.solve(graph, models[0]).canonical_json() == fresh[0]


def test_no_entry_leaks_between_models_or_chunk_sizes():
    graph = fuse_graph(load_model("GPTN-S"))
    solver = LcOpgSolver(CONFIG.opg)
    cases = [(device, chunk) for device in (ONEPLUS, PIXEL) for chunk in (512 * 1024, 64 * 1024)]
    models = {device.name: analytic_capacity_model(device) for device in (ONEPLUS, PIXEL)}
    answers = [solver._layer_chunks(graph, models[d.name], chunk) for d, chunk in cases]
    for (device, chunk), got in zip(cases, answers):
        assert got == _fresh_chunks(device, graph, chunk)
    assert len({tuple(a) for a in answers}) == len(cases)
    # A second pass is answered from the memo, unchanged.
    again = [solver._layer_chunks(graph, models[d.name], chunk) for d, chunk in cases]
    assert again == answers


def test_memo_lives_and_dies_with_its_solver():
    graph = fuse_graph(load_model("GPTN-S"))
    capacity = analytic_capacity_model(ONEPLUS)
    model_ref = weakref.ref(capacity)
    solver = LcOpgSolver(CONFIG.opg)
    solver.solve(graph, capacity)
    del capacity
    gc.collect()
    assert model_ref() is not None  # the memo keys on the model it answers for
    del solver
    gc.collect()
    assert model_ref() is None

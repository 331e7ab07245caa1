"""Differential tests for the reverse-time SRPT distance floor.

``srpt_distance_floor`` must never exceed a window's true optimum (the
exhaustive release-vector search in ``tests/oracles``), must equal it when
no lookback limit binds, and a window LC-OPG closes on the floor must come
out exactly as the CP search would have left it: the same placements and
the same remaining ``Budgets``.  Windows are seeded random in the style of
``tests/opg/window_models``: interval candidate sets of 3-7 layers, 1-12
chunks per weight, at most 8 weights.
"""

import random

import pytest

from repro.core.flashmem import FlashMem
from repro.experiments.common import experiment_flashmem_config
from repro.gpusim.device import get_device
from repro.graph.models import load_model
from repro.opg import lcopg
from repro.opg.cpsat.model import SolveStatus
from repro.opg.exact import _objective, srpt_distance_floor
from repro.opg.heuristics import Budgets
from repro.opg.lcopg import LcOpgSolver
from repro.opg.plan import PlanStats
from repro.opg.problem import OpgConfig, WeightInfo
from tests.oracles import edf_feasible_reference, prove_window_reference


def _random_window(rng: random.Random, *, full_lookback: bool = False):
    """(weights, budgets) for one window; ``full_lookback`` lets every
    weight use every capacity-bearing layer below its consumer."""
    n_layers = rng.randint(6, 16)
    capacity = [rng.randint(0, 4) for _ in range(n_layers)]
    budgets = Budgets(capacity, [rng.randint(2, 6) for _ in range(n_layers)])
    weights = []
    for i in range(rng.randint(1, 8)):
        consumer = rng.randint(min(5, n_layers - 1), n_layers - 1)
        lo = 0 if full_lookback else max(0, consumer - rng.randint(3, 7))
        candidates = [l for l in range(lo, consumer) if capacity[l] > 0]
        aggregate = sum(budgets.available(l) for l in candidates)
        if not aggregate:
            continue
        weights.append(
            WeightInfo(
                name=f"w{i}",
                nbytes=100,
                consumer_layer=consumer,
                total_chunks=rng.randint(1, min(12, aggregate)),
                candidates=candidates,
            )
        )
    weights.sort(key=lambda w: (w.consumer_layer, w.name))
    return weights, budgets


def _optimum(weights, budgets):
    """The window's exact minimum total distance, or None if infeasible."""
    releases = {w.name: min(w.candidates) for w in weights}
    incumbent = edf_feasible_reference(weights, releases, budgets)
    if incumbent is None:
        return None
    best, proven = prove_window_reference(
        weights, budgets, incumbent, node_limit=10_000_000
    )
    assert proven
    return _objective(weights, best)


def _feasible_windows(seed: int, count: int, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        weights, budgets = _random_window(rng, **kwargs)
        if weights:
            optimum = _optimum(weights, budgets)
            if optimum is not None:
                out.append((weights, budgets, optimum))
    return out


def test_floor_never_exceeds_the_exhaustive_optimum():
    strict = 0
    for weights, budgets, optimum in _feasible_windows(0x5127, 200):
        floor = srpt_distance_floor(weights, budgets)
        assert floor is not None and floor <= optimum
        strict += floor < optimum
    # The lookback binds on some windows, so the bound is not vacuous.
    assert strict > 0


def test_floor_is_exact_without_a_binding_lookback():
    for weights, budgets, optimum in _feasible_windows(0xF100, 100, full_lookback=True):
        assert srpt_distance_floor(weights, budgets) == optimum


def test_floor_reads_budgets_only():
    weights, budgets, _ = _feasible_windows(3, 1)[0]
    before = (list(budgets.capacity), list(budgets.m_peak))
    srpt_distance_floor(weights, budgets)
    assert (budgets.capacity, budgets.m_peak) == before


def _weight(name, consumer, chunks):
    return WeightInfo(
        name=name,
        nbytes=100,
        consumer_layer=consumer,
        total_chunks=chunks,
        candidates=list(range(consumer)),
    )


def test_hand_built_window():
    # Two chunks per layer.  Walking down from layer 5: b (1 chunk) finishes
    # at 5 and a gets the other chunk; c, released at 4, finishes there; a
    # (5 chunks) finishes at 2.  Distances 1 + 1 + 4.  Serving the largest
    # weight first instead costs 9.
    budgets = Budgets([2] * 6, [4] * 6)
    weights = [_weight("a", 6, 5), _weight("b", 6, 1), _weight("c", 5, 1)]
    assert srpt_distance_floor(weights, budgets) == 6
    assert _optimum(weights, budgets) == 6


def test_none_for_a_chunkless_or_unfinishable_weight():
    budgets = Budgets([2] * 6, [4] * 6)
    assert srpt_distance_floor([_weight("a", 6, 2), _weight("z", 4, 0)], budgets) is None
    # 11 chunks below layer 5 at 2 per layer fit nowhere (10 units exist).
    assert srpt_distance_floor([_weight("a", 5, 11)], budgets) is None
    # Together the two need 7 chunks below layer 3, which offers 6.
    assert srpt_distance_floor([_weight("a", 6, 1), _weight("b", 3, 7)], budgets) is None
    assert srpt_distance_floor([_weight("a", 6, 12)], budgets) == 6


def _cp_window(weights, budgets, *, max_nodes):
    solver = LcOpgSolver(OpgConfig(max_nodes_per_window=max_nodes))
    stats = PlanStats()
    result = solver._cp_window(None, weights, budgets, stats)
    return result, stats


@pytest.mark.parametrize("max_nodes", [20_000, 500])
def test_floor_closed_windows_match_the_cp_search(monkeypatch, max_nodes):
    rng = random.Random(0x1D)
    closed = 0
    for _ in range(500):
        weights, budgets = _random_window(rng)
        if not weights:
            continue
        fresh = Budgets(budgets.capacity, budgets.m_peak)
        result, stats = _cp_window(weights, budgets, max_nodes=max_nodes)
        if not stats.floor_closed_windows:
            continue
        closed += 1
        assert stats.cp_windows == stats.nodes_explored == 0
        placed, status = result
        assert status is SolveStatus.OPTIMAL
        with monkeypatch.context() as patch:
            patch.setattr(lcopg, "srpt_distance_floor", lambda *a: None)
            (searched, _), search_stats = _cp_window(weights, fresh, max_nodes=max_nodes)
        assert search_stats.cp_windows == 1
        assert placed == searched
        assert (budgets.capacity, budgets.m_peak) == (fresh.capacity, fresh.m_peak)
    assert closed >= 100


def test_floor_closed_window_builds_no_model(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a floor-closed window built a CP model")

    monkeypatch.setattr(lcopg, "CpModel", forbidden)
    budgets = Budgets([2] * 6, [4] * 6)
    weights = [_weight("c", 3, 2), _weight("a", 6, 3)]
    (placed, status), stats = _cp_window(weights, budgets, max_nodes=500)
    assert (stats.floor_closed_windows, status) == (1, SolveStatus.OPTIMAL)
    assert placed == {"c": {2: 2}, "a": {4: 1, 5: 2}}
    assert budgets.available_range(0, 6) == [2, 2, 0, 2, 1, 0]


def test_gptn_s_plan_is_byte_identical_with_the_floor_off(monkeypatch):
    def compile_gptn_s():
        fm = FlashMem(experiment_flashmem_config())
        return fm.compile(load_model("GPTN-S"), get_device("OnePlus 12"))

    with_floor = compile_gptn_s()
    monkeypatch.setattr(lcopg, "srpt_distance_floor", lambda *a: None)
    without_floor = compile_gptn_s()
    assert with_floor.plan.canonical_json() == without_floor.plan.canonical_json()
    solves_on = with_floor.fusion_report.solver_iterations
    solves_off = without_floor.fusion_report.solver_iterations
    assert sum(it["floor_closed_windows"] for it in solves_on) > 0
    assert sum(it["floor_closed_windows"] for it in solves_off) == 0
    nodes = [sum(it["nodes_explored"] for it in solves) for solves in (solves_on, solves_off)]
    assert nodes[0] < nodes[1]

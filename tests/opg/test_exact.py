"""Tests for the exact window prover (EDF feasibility + release search)."""

import pytest

from repro.opg.exact import edf_feasible, prove_window
from repro.opg.heuristics import Budgets
from repro.opg.problem import WeightInfo


def _w(name, chunks, consumer, candidates):
    return WeightInfo(
        name=name,
        nbytes=chunks * 100,
        consumer_layer=consumer,
        total_chunks=chunks,
        candidates=list(candidates),
    )


class TestEdfFeasible:
    def test_single_weight_fits(self):
        budgets = Budgets([2] * 10, [10] * 10)
        w = _w("a", 3, 8, range(4, 8))
        packed = edf_feasible([w], {"a": 4}, budgets)
        assert packed is not None
        assert sum(packed["a"].values()) == 3

    def test_release_respected(self):
        budgets = Budgets([10] * 10, [10] * 10)
        w = _w("a", 2, 8, range(2, 8))
        packed = edf_feasible([w], {"a": 6}, budgets)
        assert packed is not None
        assert min(packed["a"]) >= 6

    def test_overcommitted_returns_none(self):
        budgets = Budgets([1] * 10, [10] * 10)
        ws = [_w("a", 5, 8, range(4, 8)), _w("b", 5, 8, range(4, 8))]
        assert edf_feasible(ws, {"a": 4, "b": 4}, budgets) is None

    def test_earliest_deadline_priority_enables_tight_fit(self):
        # b's window is a strict subset of a's: only EDF-ordering fits both.
        budgets = Budgets([1] * 10, [10] * 10)
        a = _w("a", 2, 9, range(3, 9))
        b = _w("b", 2, 6, range(4, 6))
        packed = edf_feasible([a, b], {"a": 3, "b": 4}, budgets)
        assert packed is not None
        assert set(packed["b"]) <= {4, 5}

    def test_budgets_untouched(self):
        budgets = Budgets([2] * 10, [10] * 10)
        before = list(budgets.capacity)
        edf_feasible([_w("a", 3, 8, range(4, 8))], {"a": 4}, budgets)
        assert budgets.capacity == before

    def test_empty_weights(self):
        assert edf_feasible([], {}, Budgets([1], [1])) == {}


class TestProveWindow:
    def test_proves_uncontended_optimum(self):
        # One weight, plenty of capacity: optimum = latest layer, distance 1.
        budgets = Budgets([10] * 10, [10] * 10)
        w = _w("a", 3, 8, range(2, 8))
        incumbent = {"a": {7: 3}}
        best, proven = prove_window([w], budgets, incumbent)
        assert proven
        assert min(best["a"]) == 7

    def test_improves_bad_incumbent(self):
        budgets = Budgets([10] * 10, [10] * 10)
        w = _w("a", 2, 8, range(2, 8))
        bad = {"a": {2: 2}}  # distance 6, optimum is 1
        best, proven = prove_window([w], budgets, bad)
        assert proven
        assert min(best["a"]) == 7

    def test_contended_pair_optimal(self):
        # Two weights share layer 7's single slot: optimum total distance 3.
        budgets = Budgets([0, 0, 0, 0, 0, 1, 1, 1], [10] * 8)
        a = _w("a", 1, 8, range(5, 8))
        b = _w("b", 1, 8, range(5, 8))
        incumbent = {"a": {7: 1}, "b": {6: 1}}
        best, proven = prove_window([a, b], budgets, incumbent)
        assert proven
        total = sum(8 - min(best[n]) for n in ("a", "b"))
        assert total == 3

    def test_node_limit_returns_unproven(self):
        budgets = Budgets([1] * 40, [10] * 40)
        ws = [_w(f"w{i}", 2, 30, range(5, 30)) for i in range(8)]
        releases = {w.name: 5 for w in ws}
        incumbent = edf_feasible(ws, releases, budgets)
        assert incumbent is not None
        _, proven = prove_window(ws, budgets, incumbent, node_limit=5)
        assert not proven

    def test_result_respects_budgets(self):
        budgets = Budgets([2] * 12, [10] * 12)
        ws = [_w(f"w{i}", 3, 10, range(4, 10)) for i in range(3)]
        releases = {w.name: 4 for w in ws}
        incumbent = edf_feasible(ws, releases, budgets)
        best, _ = prove_window(ws, budgets, incumbent)
        used = {}
        for assignment in best.values():
            for l, c in assignment.items():
                used[l] = used.get(l, 0) + c
        for l, c in used.items():
            assert c <= budgets.available(l)

"""Window-level solve reuse: fingerprints, replay fidelity, cache policy.

The reuse invariant under test: a replayed window must leave the solver in
*exactly* the state a fresh ``_solve_window`` would — same schedules, same
statuses, same budget consumption, same deferred hand-offs — so plans are
byte-identical with the cache on or off (the cross-layer equivalence test
lives in ``tests/fusion/test_adaptive_reuse_equivalence``).
"""

import dataclasses

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.opg.heuristics import Budgets
from repro.opg.lcopg import LcOpgSolver, WindowCache, _WindowEntry
from repro.opg.problem import OpgConfig, WeightInfo, build_problem
from tests.oracles import ColdWindowCache, cold_solver

FAST = OpgConfig(max_nodes_per_window=300, chunk_bytes=8 * 1024)


def _model(name="reuse-test", blocks=3):
    b = GraphBuilder(name)
    b.embedding(16, 500, 128)
    for _ in range(blocks):
        b.transformer_block(16, 128, 4)
    return b.finish()


def _w(name, chunks, consumer, candidates):
    return WeightInfo(
        name=name,
        nbytes=chunks * 100,
        consumer_layer=consumer,
        total_chunks=chunks,
        candidates=list(candidates),
    )


class TestFingerprint:
    def test_translation_invariant(self):
        """The same window shifted by a constant layer offset must hit."""
        solver = LcOpgSolver(FAST)
        budgets = Budgets([3] * 40, [10] * 40)
        window = [_w("a", 2, 10, range(6, 10)), _w("b", 3, 12, range(8, 12))]
        shifted = [_w("a", 2, 17, range(13, 17)), _w("b", 3, 19, range(15, 19))]
        key1, base1 = solver._window_fingerprint(window, budgets, set())
        key2, base2 = solver._window_fingerprint(shifted, budgets, set())
        assert key1 == key2
        assert base2[0] - base1[0] == 7

    def test_rename_invariant(self):
        """Weight identity is positional: renaming every weight (as fusion
        splits do to downstream node ids) must still hit."""
        solver = LcOpgSolver(FAST)
        budgets = Budgets([3] * 40, [10] * 40)
        window = [_w("a", 2, 10, range(6, 10)), _w("b", 3, 12, range(8, 12))]
        renamed = [_w("p", 2, 10, range(6, 10)), _w("q", 3, 12, range(8, 12))]
        key1, _ = solver._window_fingerprint(window, budgets, set())
        key2, _ = solver._window_fingerprint(renamed, budgets, set())
        assert key1 == key2

    def test_budget_drift_misses(self):
        """Different availability over the window span must not match."""
        solver = LcOpgSolver(FAST)
        window = [_w("a", 2, 10, range(6, 10))]
        clean = Budgets([3] * 40, [10] * 40)
        drifted = Budgets([3] * 40, [10] * 40)
        drifted.consume(7, 1)
        key1, _ = solver._window_fingerprint(window, clean, set())
        key2, _ = solver._window_fingerprint(window, drifted, set())
        assert key1 != key2

    def test_soft_round_quota_not_in_key(self):
        """Burning a quota round (capacities unchanged) must NOT invalidate
        the key — only quota-*sensitive* entries are pinned to the quota
        state they were recorded under (see ``_WindowEntry``), which is what
        stops one early soft round from cascading misses downstream."""
        solver = LcOpgSolver(FAST)
        window = [_w("a", 2, 10, range(6, 10))]
        fresh = Budgets([3] * 40, [10] * 40)
        relaxed = Budgets([3] * 40, [10] * 40)
        relaxed.scale_capacity(1.0)  # burns the round, capacities unchanged
        key1, _ = solver._window_fingerprint(window, fresh, set())
        key2, _ = solver._window_fingerprint(window, relaxed, set())
        assert key1 == key2

    def test_budget_keyed_at_candidate_layers_only(self):
        """Capacity drift at layers no window weight can touch must hit:
        the canonical key reads budgets only at the candidate-layer union."""
        solver = LcOpgSolver(FAST)
        window = [_w("a", 2, 10, range(6, 10))]
        clean = Budgets([3] * 40, [10] * 40)
        drifted = Budgets([3] * 40, [10] * 40)
        drifted.consume(15, 2)  # outside the union {6..9}
        key1, _ = solver._window_fingerprint(window, clean, set())
        key2, _ = solver._window_fingerprint(window, drifted, set())
        assert key1 == key2

    def test_forced_preload_membership_in_key(self):
        solver = LcOpgSolver(FAST)
        budgets = Budgets([3] * 40, [10] * 40)
        window = [_w("a", 2, 10, range(6, 10))]
        key1, _ = solver._window_fingerprint(window, budgets, set())
        key2, _ = solver._window_fingerprint(window, budgets, {"a"})
        assert key1 != key2

    def test_config_and_engine_in_key(self):
        budgets = Budgets([3] * 40, [10] * 40)
        window = [_w("a", 2, 10, range(6, 10))]
        base = LcOpgSolver(FAST)._window_fingerprint(window, budgets, set())[0]
        other_cfg = LcOpgSolver(dataclasses.replace(FAST, lam=0.5))
        # use_cp picks the window engine: CP search or the greedy heuristic.
        greedy_only = LcOpgSolver(FAST, use_cp=False)
        assert other_cfg._window_fingerprint(window, budgets, set())[0] != base
        assert greedy_only._window_fingerprint(window, budgets, set())[0] != base


class TestReplayEquivalence:
    def test_second_solve_replays_and_reproduces_plan(self):
        """Same graph solved twice through one solver: full reuse, same plan."""
        graph = _model()
        capacity = analytic_capacity_model(oneplus_12())
        solver = LcOpgSolver(FAST)
        plan1 = solver.solve(graph, capacity, device_name="OnePlus 12")
        assert plan1.stats.windows_reused == 0
        plan2 = solver.solve(graph, capacity, device_name="OnePlus 12")
        assert plan2.stats.windows_reused == plan2.stats.windows > 0
        assert plan2.schedules == plan1.schedules
        assert plan2.stats.solver_status == plan1.stats.solver_status
        assert plan2.stats.soft_threshold_rounds == plan1.stats.soft_threshold_rounds
        assert plan2.stats.incremental_preloads == plan1.stats.incremental_preloads

    def test_cold_cache_reuses_nothing(self):
        """The oracle cache: every window of a repeated solve runs cold."""
        graph = _model()
        capacity = analytic_capacity_model(oneplus_12())
        solver = cold_solver(FAST)
        assert isinstance(solver.window_cache, ColdWindowCache)
        plan1 = solver.solve(graph, capacity)
        plan2 = solver.solve(graph, capacity)
        assert plan2.stats.windows_reused == 0
        assert solver.window_cache.hits == 0
        assert solver.window_cache.misses == plan1.stats.windows + plan2.stats.windows
        assert plan2.schedules == plan1.schedules

    def test_replay_consumes_identical_budgets(self):
        """After a replayed solve, a from-scratch solver must still agree —
        i.e. replay left no budget skew behind."""
        graph = _model(blocks=4)
        capacity = analytic_capacity_model(oneplus_12())
        warm = LcOpgSolver(FAST)
        warm.solve(graph, capacity)
        replayed = warm.solve(graph, capacity)
        cold = cold_solver(FAST).solve(graph, capacity)
        assert replayed.schedules == cold.schedules


class TestWindowCache:
    def test_counters_and_eviction(self):
        cache = WindowCache(max_entries=2)
        entry = _WindowEntry(
            status=None, soft_rounds=0, heuristic_windows=0,
            assignments={}, deferred=(), consumption=(),
        )
        assert cache.get("a") is None
        cache.put("a", entry)
        cache.put("b", entry)
        assert cache.get("a") is entry
        cache.put("c", entry)  # evicts FIFO head "a"
        assert cache.get("a") is None
        assert len(cache) == 2
        assert cache.hits == 1 and cache.misses == 2
        assert 0.0 < cache.hit_rate < 1.0

    def test_soft_sensitive_entries_pinned_to_quota_state(self):
        """Quota-sensitive entries replay only at the quota state they were
        recorded under; insensitive ones replay at any state."""
        cache = WindowCache()
        sensitive = _WindowEntry(
            status=None, soft_rounds=1, heuristic_windows=0,
            assignments={}, deferred=(), consumption=(),
            soft_sensitive=True, soft_rounds_left=2,
        )
        cache.store("k", sensitive)
        assert cache.lookup("k", 2) is sensitive
        assert cache.lookup("k", 1) is None
        insensitive = _WindowEntry(
            status=None, soft_rounds=0, heuristic_windows=0,
            assignments={}, deferred=(), consumption=(),
        )
        cache.store("k2", insensitive)
        assert cache.lookup("k2", 2) is insensitive
        assert cache.lookup("k2", 0) is insensitive
        assert cache.hits == 3 and cache.misses == 1


class TestBudgetsMemo:
    def test_available_tracks_mutations(self):
        b = Budgets([4, 2, 0], [3, 10, 10])
        assert [b.available(i) for i in range(3)] == [3, 2, 0]
        b.consume(0, 2)
        assert b.available(0) == 1
        b.release(0, 1)
        assert b.available(0) == 2
        assert b.scale_capacity(2.0)
        # capacity doubled: [4, 4(released math), ...] min m_peak still caps
        assert b.available(0) == min(b.capacity[0], b.m_peak[0])
        assert b.available_range(0, 3) == [b.available(i) for i in range(3)]

    def test_available_range_returns_copy(self):
        b = Budgets([4, 2], [3, 10])
        view = b.available_range(0, 2)
        view[0] = 99
        assert b.available(0) == 3

    def test_consume_overflow_raises(self):
        import pytest

        b = Budgets([1], [1])
        with pytest.raises(ValueError):
            b.consume(0, 2)


class TestWindowPartition:
    def test_insertion_invariance(self):
        """Inserting layers upstream must not change downstream membership."""
        graph = _model(blocks=4)
        capacity = analytic_capacity_model(oneplus_12())
        cfg = dataclasses.replace(FAST, window_weights=8)
        solver = LcOpgSolver(cfg)
        problem = build_problem(graph, capacity, cfg)
        windows = solver._windows(problem)
        assert all(len(w) <= 8 for w in windows)
        # Shift every weight's coordinates by a constant (what an upstream
        # fusion split does to downstream windows): same membership.
        for w in problem.weights:
            w.consumer_layer += 5
            w.candidates = [c + 5 for c in w.candidates]
        shifted = solver._windows(problem)
        assert [[w.name for w in win] for win in shifted] == [
            [w.name for w in win] for win in windows
        ]

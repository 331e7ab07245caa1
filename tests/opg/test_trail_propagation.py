"""Unit tests for the trail-based incremental propagation core.

:class:`BitsetState` is both the search's undo trail and its propagator.
The tests drive it the way ``CpSolver`` does: a mark is taken at a node
boundary and every node opens with ``undo_to`` (see ``BitsetState.mark``).
The full-sweep ``propagate`` and the ``objective_lower_bound`` re-scan in
``tests/oracles`` are the references.
"""

import random

from repro.opg.cpsat.bitset import BitsetState
from repro.opg.cpsat.model import CpModel, SolveStatus
from repro.opg.cpsat.search import CpSolver
from repro.opg.cpsat.stats import PropagationStats
from tests.oracles import Domains, objective_lower_bound, propagate


def _state(lo, hi, objective=(), offset=0) -> BitsetState:
    """A constraint-free state over variables with the given bounds;
    ``objective`` is ``(var index, coefficient)`` pairs."""
    m = CpModel()
    vs = [m.new_int(l, h, f"v{i}") for i, (l, h) in enumerate(zip(lo, hi))]
    if objective:
        m.minimize([(vs[i], coef) for i, coef in objective], offset=offset)
    return BitsetState(m)


def _open_node(state: BitsetState) -> int:
    """Open a search node as ``CpSolver`` does; returns its undo point."""
    mark = state.mark()
    state.undo_to(mark)
    return mark


class TestTrail:
    """The trail API: mark / set_lo / set_hi / undo_to / lower_bound."""

    def test_set_and_undo_restores_bounds(self):
        state = _state([0, 0, 0], [9, 9, 9])
        mark = _open_node(state)
        state.set_lo(0, 4)
        state.set_hi(1, 5)
        state.set_lo(0, 6)  # second tightening of the same var
        assert (state.lo[0], state.hi[1]) == (6, 5)
        state.undo_to(mark)
        assert list(state.lo) == [0, 0, 0] and list(state.hi) == [9, 9, 9]
        assert state.entries == []

    def test_nested_marks_unwind_partially(self):
        state = _state([0], [9])
        _open_node(state)
        state.set_lo(0, 2)
        inner = _open_node(state)
        state.set_lo(0, 7)
        state.undo_to(inner)
        assert state.lo[0] == 2

    def test_incremental_objective_lower_bound(self):
        # minimise 2*a - 3*b + 1: bound moves with lo(a) and hi(b).
        state = _state([0, 0], [10, 10], objective=[(0, 2), (1, -3)], offset=1)
        assert state.lower_bound == 1 + 0 - 30
        mark = _open_node(state)
        state.set_lo(0, 4)   # +8
        state.set_hi(1, 6)   # -3*(6-10) = +12
        assert state.lower_bound == 1 + 8 - 18
        state.undo_to(mark)
        assert state.lower_bound == 1 - 30

    def test_bound_matches_rescan_under_random_ops(self):
        rng = random.Random(7)
        m = CpModel()
        vs = [m.new_int(0, 8, f"v{i}") for i in range(5)]
        m.minimize([(vs[0], 2), (vs[1], -1), (vs[3], 3)], offset=4)
        state = BitsetState(m)
        marks = []
        for _ in range(200):
            if marks and rng.random() < 0.3:
                state.undo_to(marks.pop())
            else:
                marks.append(_open_node(state))
                idx = rng.randrange(5)
                if rng.random() < 0.5 and state.lo[idx] < state.hi[idx]:
                    state.set_lo(idx, state.lo[idx] + 1)
                elif state.hi[idx] > state.lo[idx]:
                    state.set_hi(idx, state.hi[idx] - 1)
            assert state.lower_bound == objective_lower_bound(m, state)


class TestModelFreeze:
    def test_freeze_cache_invalidated_by_mutation(self):
        m = CpModel()
        a = m.new_int(0, 5, "a")
        m.minimize([(a, 1)])
        first = m.freeze()
        assert m.freeze() is first  # cached
        m.minimize([(a, -3)])
        second = m.freeze()
        assert second is not first
        assert second.obj_coef == {a: -3}

    def test_objective_index(self):
        m = CpModel()
        a = m.new_int(0, 5, "a")
        b = m.new_int(0, 5, "b")
        m.minimize([(a, 2), (b, -1)])
        idx = m.freeze()
        assert idx.obj_vars == {a, b}
        assert idx.obj_coef == {a: 2, b: -1}


def _assert_same_fixpoint(model: CpModel) -> BitsetState:
    """Sweep oracle and bitset root propagation must land on identical bounds."""
    sweep = Domains.from_model(model)
    ok_sweep, sweep_stats = propagate(model, sweep)
    assert sweep_stats.fixpoint_reached

    state = BitsetState(model)
    ok = state.propagate_all(PropagationStats())

    assert ok == ok_sweep
    if ok_sweep:
        assert list(state.lo) == sweep.lo and list(state.hi) == sweep.hi
    return state


class TestIncrementalPropagator:
    """The propagator API: propagate_all / propagate_from over watcher bitsets."""

    def test_matches_sweep_on_linear_chain(self):
        m = CpModel()
        a = m.new_int(0, 10, "a")
        b = m.new_int(4, 10, "b")
        c = m.new_int(0, 10, "c")
        m.add_sum_le([(a, 1), (b, 1)], 7)
        m.add_linear([(a, 1), (c, 1)], lo=8, hi=20)
        _assert_same_fixpoint(m)

    def test_matches_sweep_on_implications(self):
        m = CpModel()
        x = m.new_int(1, 5, "x")
        z = m.new_int(0, 9, "z")
        y = m.new_int(7, 9, "y")
        m.add_implication(x, 1, z, 4)
        m.add_implication(z, 9, y, 4)
        _assert_same_fixpoint(m)

    def test_matches_sweep_on_random_models(self):
        rng = random.Random(99)
        unit = mixed = 0
        for _ in range(80):
            m = CpModel()
            vs = [m.new_int(rng.randint(0, 2), rng.randint(3, 9), f"v{i}") for i in range(5)]
            for c in range(rng.randint(1, 5)):
                idxs = rng.sample(range(5), rng.randint(1, 4))
                m.add_linear(
                    [(vs[i], rng.randint(1, 3)) for i in idxs],
                    lo=rng.randint(0, 5),
                    hi=rng.randint(5, 25),
                    name=f"c{c}",
                )
            for _ in range(rng.randint(0, 3)):
                i, j = rng.sample(range(5), 2)
                m.add_implication(vs[i], rng.randint(0, 8), vs[j], rng.randint(0, 8))
            con_unit = _assert_same_fixpoint(m).con_unit
            unit += sum(terms is not None for terms in con_unit)
            mixed += sum(terms is None for terms in con_unit)
        # Coefficients 1-3: both the unit fast path and the general path ran.
        assert unit > 10 and mixed > 10

    def test_dirty_seeding_propagates_only_affected(self):
        m = CpModel()
        a = m.new_int(0, 10, "a")
        b = m.new_int(0, 10, "b")
        c = m.new_int(0, 10, "c")  # disconnected from a
        m.add_sum_le([(a, 1), (b, 1)], 12)
        m.add_sum_le([(c, 1)], 9)
        state = BitsetState(m)
        assert state.propagate_all(PropagationStats())  # root fixpoint (hi[c] -> 9)
        # Now branch on a: only constraint 0 should be touched.
        _open_node(state)
        state.set_lo(a, 8)
        assert state.dirty == 0b01
        stats = PropagationStats()
        assert state.propagate_from(stats)
        assert state.hi[b] == 4
        assert stats.linear_props == 1  # constraint on c never re-evaluated

    def test_conflict_leaves_dirty_clean(self):
        m = CpModel()
        a = m.new_int(0, 5, "a")
        b = m.new_int(0, 5, "b")
        m.add_linear([(a, 1), (b, 1)], lo=8, hi=10)
        m.add_sum_le([(a, 1)], 1)
        m.add_sum_le([(b, 1)], 1)
        state = BitsetState(m)
        assert not state.propagate_all(PropagationStats())
        assert state.dirty == 0  # ready for reuse after a conflict


class TestSweepFixpointGuard:
    def test_fixpoint_flag_true_on_easy_model(self):
        m = CpModel()
        a = m.new_int(0, 10, "a")
        m.add_sum_le([(a, 1)], 5)
        ok, stats = propagate(m, Domains.from_model(m))
        assert ok and stats.fixpoint_reached

    def test_max_passes_exhaustion_is_reported(self):
        # con1 raises lb(b) only after con0 ran, so con0's tightening of
        # hi(a) against the new lb(b) needs a second pass: with
        # max_passes=1 the sweep is truncated and must say so.
        m = CpModel()
        a = m.new_int(0, 20, "a")
        b = m.new_int(0, 50, "b")
        m.add_linear([(a, 1), (b, 1)], lo=0, hi=10, name="con0")
        m.add_linear([(b, 1)], lo=8, hi=50, name="con1")
        ok, stats = propagate(m, Domains.from_model(m), max_passes=1)
        assert ok
        assert not stats.fixpoint_reached  # truncated, not converged
        ok, stats = propagate(m, Domains.from_model(m))
        assert ok and stats.fixpoint_reached  # default budget converges

    def test_solver_stats_report_no_incomplete_fixpoints(self):
        m = CpModel()
        xs = [m.new_int(0, 4, f"x{i}") for i in range(6)]
        m.add_sum_eq([(x, 1) for x in xs], 10)
        m.minimize([(xs[0], 1)])
        sol = CpSolver().solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.stats is not None
        assert sol.stats.fixpoint_incomplete == 0
        assert sol.stats.nodes == sol.nodes_explored
        assert sol.stats.propagations == sol.propagations
        assert sol.stats.linear_props > 0
        assert sol.stats.wall_time_s > 0
        assert sol.stats.nodes_per_sec > 0


class TestTrailSolverBehaviour:
    def test_stats_threaded_through_solution(self):
        m = CpModel()
        a = m.new_int(0, 9, "a")
        b = m.new_int(0, 9, "b")
        m.add_linear([(a, 1), (b, 1)], lo=6, hi=18)
        m.minimize([(a, 3), (b, 1)])
        sol = CpSolver().solve(m)
        assert sol.status is SolveStatus.OPTIMAL and sol.objective == 6
        d = sol.stats.as_dict()
        for key in ("nodes", "propagations", "linear_props", "implication_props",
                    "trail_depth_peak", "time_propagate_s", "time_branch_s", "nodes_per_sec"):
            assert key in d
        assert "queue_peak" not in d  # no engine reports one

    def test_infeasible_still_carries_stats(self):
        m = CpModel()
        a = m.new_int(0, 2, "a")
        m.add_sum_eq([(a, 1)], 9)
        sol = CpSolver().solve(m)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.stats is not None and sol.stats.wall_time_s >= 0

    def test_node_budget_respected(self):
        m = CpModel()
        xs = [m.new_int(0, 10, f"x{i}") for i in range(20)]
        m.add_sum_eq([(x, 1) for x in xs], 100)
        m.minimize([(x, 1) for x in xs[:3]])
        sol = CpSolver(max_nodes=50).solve(m)
        assert sol.nodes_explored <= 50

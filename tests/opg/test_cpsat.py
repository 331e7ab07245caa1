"""Tests for the CP-SAT substrate: model, propagation, branch-and-bound.

``TestPropagation`` pins the tightening rules on the full-sweep oracle;
``test_trail_propagation`` holds the production engine to the oracle's
fixpoint.
"""

import pytest

from repro.opg.cpsat.model import CpModel, SolveStatus
from repro.opg.cpsat.search import CpSolver
from tests.oracles import Domains, propagate, validate_assignment


class TestModelBuilding:
    def test_variable_domains(self):
        m = CpModel()
        v = m.new_int(2, 7, "v")
        assert (m.var_lo[v], m.var_hi[v]) == (2, 7)
        with pytest.raises(ValueError):
            m.new_int(5, 3, "bad")

    def test_linear_rejects_nonpositive_coeff(self):
        m = CpModel()
        v = m.new_int(0, 5, "v")
        with pytest.raises(ValueError):
            m.add_linear([(v, 0)], hi=3)
        with pytest.raises(ValueError):
            m.add_linear([(v, -1)], hi=3)

    def test_linear_rejects_lo_above_hi(self):
        m = CpModel()
        v = m.new_int(0, 5, "v")
        with pytest.raises(ValueError):
            m.add_linear([(v, 1)], lo=4, hi=2)

    def test_objective_value(self):
        m = CpModel()
        a = m.new_int(0, 5, "a")
        b = m.new_int(0, 5, "b")
        m.minimize([(a, 2), (b, -1)], offset=10)
        assert m.objective_value([3, 4]) == 10 + 6 - 4

    def test_validate_assignment(self):
        m = CpModel()
        a = m.new_int(0, 5, "a")
        b = m.new_int(0, 5, "b")
        m.add_sum_eq([(a, 1), (b, 1)], 6, name="sum")
        m.add_implication(a, 3, b, 2)
        assert validate_assignment(m, [2, 4]) == []
        assert validate_assignment(m, [3, 3])  # sum ok but implication violated
        assert validate_assignment(m, [9, 9])  # domain + sum violations


class TestPropagation:
    def test_linear_tightens_upper(self):
        m = CpModel()
        a = m.new_int(0, 10, "a")
        b = m.new_int(4, 10, "b")
        m.add_sum_le([(a, 1), (b, 1)], 7)
        d = Domains.from_model(m)
        ok, _ = propagate(m, d)
        assert ok
        assert d.hi[a] == 3  # a <= 7 - lb(b)

    def test_linear_tightens_lower(self):
        m = CpModel()
        a = m.new_int(0, 10, "a")
        b = m.new_int(0, 2, "b")
        m.add_linear([(a, 1), (b, 1)], lo=8, hi=20)
        d = Domains.from_model(m)
        ok, _ = propagate(m, d)
        assert ok
        assert d.lo[a] == 6  # a >= 8 - ub(b)

    def test_coefficient_division_rounding(self):
        m = CpModel()
        a = m.new_int(0, 10, "a")
        m.add_sum_le([(a, 3)], 7)
        d = Domains.from_model(m)
        propagate(m, d)
        assert d.hi[a] == 2  # floor(7/3)

    def test_infeasible_detected(self):
        m = CpModel()
        a = m.new_int(0, 2, "a")
        m.add_linear([(a, 1)], lo=5, hi=9)
        ok, _ = propagate(m, Domains.from_model(m))
        assert not ok

    def test_implication_forward(self):
        m = CpModel()
        x = m.new_int(1, 5, "x")  # condition always holds (lb >= 1)
        z = m.new_int(0, 9, "z")
        m.add_implication(x, 1, z, 4)
        d = Domains.from_model(m)
        propagate(m, d)
        assert d.hi[z] == 4

    def test_implication_contrapositive(self):
        m = CpModel()
        x = m.new_int(0, 5, "x")
        z = m.new_int(7, 9, "z")  # consequent can never hold
        m.add_implication(x, 2, z, 4)
        d = Domains.from_model(m)
        propagate(m, d)
        assert d.hi[x] == 1  # condition forbidden


class TestSolver:
    def test_satisfaction_problem(self):
        m = CpModel()
        a = m.new_int(0, 5, "a")
        b = m.new_int(0, 5, "b")
        m.add_sum_eq([(a, 1), (b, 2)], 7)
        sol = CpSolver().solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value_of(a) + 2 * sol.value_of(b) == 7

    def test_infeasible_problem(self):
        m = CpModel()
        a = m.new_int(0, 2, "a")
        m.add_sum_eq([(a, 1)], 9)
        sol = CpSolver().solve(m)
        assert sol.status is SolveStatus.INFEASIBLE
        assert not sol.feasible

    def test_minimization_finds_optimum(self):
        m = CpModel()
        a = m.new_int(0, 9, "a")
        b = m.new_int(0, 9, "b")
        m.add_linear([(a, 1), (b, 1)], lo=6, hi=18)
        m.minimize([(a, 3), (b, 1)])
        sol = CpSolver().solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        # Cheapest way to reach sum >= 6 is all b.
        assert sol.objective == 6
        assert sol.value_of(b) == 6

    def test_maximization_via_negative_coeffs(self):
        m = CpModel()
        a = m.new_int(0, 4, "a")
        m.add_sum_le([(a, 1)], 3)
        m.minimize([(a, -1)])
        sol = CpSolver().solve(m)
        assert sol.value_of(a) == 3

    def test_hint_respected_first(self):
        m = CpModel()
        a = m.new_int(0, 100, "a", hint=37)
        sol = CpSolver().solve(m)
        assert sol.value_of(a) == 37  # satisfaction: first solution = hint

    def test_solution_validates(self):
        m = CpModel()
        xs = [m.new_int(0, 4, f"x{i}") for i in range(6)]
        m.add_sum_eq([(x, 1) for x in xs], 10)
        for x in xs[:3]:
            m.add_sum_le([(x, 1)], 2)
        z = m.new_int(0, 9, "z")
        m.add_implication(xs[0], 1, z, 3)
        m.minimize([(z, -1)])
        sol = CpSolver().solve(m)
        assert sol.feasible
        assert validate_assignment(m, sol.values) == []

    @staticmethod
    def _large_model() -> CpModel:
        # Large but satisfiable: a full search needs ~150 nodes, so a
        # 50-node budget cuts it short.
        m = CpModel()
        xs = [m.new_int(0, 50, f"x{i}") for i in range(40)]
        m.add_sum_eq([(x, 1) for x in xs], 500)
        m.minimize([(x, 1) for x in xs[:5]])
        return m

    def test_time_limit_returns_feasible_or_unknown(self):
        # The node budget is the solver's only limit: a search it cuts
        # short reports no proof.
        sol = CpSolver(max_nodes=50).solve(self._large_model())
        assert sol.status in (SolveStatus.FEASIBLE, SolveStatus.UNKNOWN)

    def test_node_budget_respected(self):
        sol = CpSolver(max_nodes=50).solve(self._large_model())
        assert sol.nodes_explored <= 50

    def test_root_bound_early_exit_proves_optimal(self):
        # Hint is the optimum; the incumbent matches the root bound.
        m = CpModel()
        a = m.new_int(0, 9, "a", hint=0)
        m.add_sum_le([(a, 1)], 9)
        m.minimize([(a, 1)])
        sol = CpSolver().solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0

"""Property-based tests for the CP-SAT substrate (hypothesis).

Invariants:
- any solution the solver returns satisfies every constraint;
- the solver never reports INFEASIBLE for an instance constructed around a
  known witness assignment;
- for small instances, the reported optimum matches brute force.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opg.cpsat.model import CpModel, SolveStatus
from repro.opg.cpsat.search import CpSolver
from tests.oracles import validate_assignment


@st.composite
def witnessed_instances(draw):
    """A CP instance plus a witness assignment that satisfies it.

    Constraints are generated *around* the witness (sum bounds that include
    the witness sum), so the instance is satisfiable by construction.
    """
    n = draw(st.integers(2, 5))
    domains = [draw(st.tuples(st.integers(0, 3), st.integers(3, 8))) for _ in range(n)]
    witness = [draw(st.integers(lo, hi)) for lo, hi in domains]
    m = CpModel()
    vs = [m.new_int(lo, hi, f"v{i}") for i, (lo, hi) in enumerate(domains)]
    n_cons = draw(st.integers(1, 4))
    for c in range(n_cons):
        idxs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = [draw(st.integers(1, 3)) for _ in idxs]
        total = sum(coeffs[j] * witness[i] for j, i in enumerate(idxs))
        slack_lo = draw(st.integers(0, 4))
        slack_hi = draw(st.integers(0, 4))
        m.add_linear(
            [(vs[i], coeffs[j]) for j, i in enumerate(idxs)],
            lo=max(0, total - slack_lo),
            hi=total + slack_hi,
            name=f"c{c}",
        )
    # Implications consistent with the witness.
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        cond_ge = draw(st.integers(0, 8))
        if witness[i] >= cond_ge:
            then_ub = draw(st.integers(witness[j], 10))
        else:
            then_ub = draw(st.integers(0, 10))
        m.add_implication(vs[i], cond_ge, vs[j], then_ub)
    if draw(st.booleans()):
        m.minimize([(v, draw(st.integers(-2, 2))) for v in vs if draw(st.booleans())] or [(vs[0], 1)])
    return m, witness


@given(witnessed_instances())
@settings(max_examples=60, deadline=None)
def test_solver_solutions_are_feasible(instance):
    m, _witness = instance
    sol = CpSolver().solve(m)
    assert sol.status is not SolveStatus.INFEASIBLE
    if sol.values is not None:
        assert validate_assignment(m, sol.values) == []


@given(witnessed_instances())
@settings(max_examples=25, deadline=None)
def test_optimal_matches_brute_force(instance):
    m, _witness = instance
    if not m.objective:
        return
    sol = CpSolver().solve(m)
    if sol.status is not SolveStatus.OPTIMAL:
        return  # node budget hit: nothing to compare
    ranges = [range(lo, hi + 1) for lo, hi in zip(m.var_lo, m.var_hi)]
    best = None
    for assignment in itertools.product(*ranges):
        if validate_assignment(m, list(assignment)):
            continue
        obj = m.objective_value(list(assignment))
        if best is None or obj < best:
            best = obj
    assert best is not None
    assert sol.objective == best

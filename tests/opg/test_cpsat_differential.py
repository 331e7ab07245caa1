"""Randomized differential test: trail solver ≡ brute force ≡ naive solver.

The safety net for the trail/incremental rewrite: on 220 seeded random CP
models (≤ 8 vars, mixed linears/implications, some infeasible, some
satisfaction-only), the trail-based solver must report exactly the status
and optimal objective that exhaustive enumeration does — and agree with
the preserved seed solver (``NaiveCpSolver`` in ``tests/oracles``).
"""

import itertools
import random

from repro.opg.cpsat.model import CpModel, SolveStatus
from repro.opg.cpsat.search import CpSolver
from tests.oracles import NaiveCpSolver, validate_assignment

N_MODELS = 220
#: Keep exhaustive enumeration cheap: cap the assignment-space size.
MAX_SPACE = 4096


def _random_model(rng: random.Random) -> CpModel:
    n = rng.randint(2, 8)
    model = CpModel()
    variables = []
    space = 1
    for i in range(n):
        lo = rng.randint(0, 3)
        width = rng.randint(0, 3)
        while space * (width + 1) > MAX_SPACE and width > 0:
            width -= 1
        space *= width + 1
        hint = rng.randint(lo, lo + width) if rng.random() < 0.3 else None
        variables.append(model.new_int(lo, lo + width, f"v{i}", hint=hint))
    for c in range(rng.randint(1, 4)):
        k = rng.randint(1, n)
        idxs = rng.sample(range(n), k)
        coeffs = [rng.randint(1, 3) for _ in idxs]
        # Bounds chosen around a random point of the reachable sum range, so
        # instances are sometimes tight, sometimes loose, sometimes infeasible.
        sum_lo = sum(c_ * model.var_lo[i] for c_, i in zip(coeffs, idxs))
        sum_hi = sum(c_ * model.var_hi[i] for c_, i in zip(coeffs, idxs))
        pivot = rng.randint(sum_lo - 2, sum_hi + 2)
        lo = max(0, pivot - rng.randint(0, 4))
        hi = pivot + rng.randint(0, 4)
        if lo > hi:
            lo = hi
        model.add_linear(
            [(variables[i], c_) for c_, i in zip(coeffs, idxs)], lo=lo, hi=hi, name=f"c{c}"
        )
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        model.add_implication(
            variables[i],
            rng.randint(0, 6),
            variables[j],
            rng.randint(0, 6),
        )
    if rng.random() < 0.75:
        terms = [(v, rng.randint(-2, 2)) for v in variables if rng.random() < 0.7]
        terms = [(v, c_) for v, c_ in terms if c_ != 0]
        if terms:
            model.minimize(terms, offset=rng.randint(-5, 5))
    return model


def _brute_force(model: CpModel):
    """(feasible, best objective) by exhaustive enumeration."""
    ranges = [range(lo, hi + 1) for lo, hi in zip(model.var_lo, model.var_hi)]
    best = None
    feasible = False
    for assignment in itertools.product(*ranges):
        values = list(assignment)
        if validate_assignment(model, values):
            continue
        feasible = True
        if not model.objective:
            return True, 0
        obj = model.objective_value(values)
        if best is None or obj < best:
            best = obj
    return feasible, best if model.objective else 0


def test_trail_solver_matches_brute_force_and_naive():
    rng = random.Random(0xF1A5)
    checked = 0
    for case in range(N_MODELS):
        model = _random_model(rng)
        feasible, best = _brute_force(model)
        sol = CpSolver().solve(model)
        naive = NaiveCpSolver().solve(model)
        if not feasible:
            assert sol.status is SolveStatus.INFEASIBLE, f"case {case}: trail found ghost solution"
            assert naive.status is SolveStatus.INFEASIBLE, f"case {case}: naive found ghost solution"
        else:
            assert sol.status is SolveStatus.OPTIMAL, f"case {case}: trail status {sol.status}"
            assert naive.status is SolveStatus.OPTIMAL, f"case {case}: naive status {naive.status}"
            assert validate_assignment(model, sol.values) == [], f"case {case}: invalid trail solution"
            if model.objective:
                assert sol.objective == best, (
                    f"case {case}: trail objective {sol.objective} != brute force {best}"
                )
                assert naive.objective == best, (
                    f"case {case}: naive objective {naive.objective} != brute force {best}"
                )
        # The dirty-queue propagator must always reach fixpoint.
        assert sol.stats is not None and sol.stats.fixpoint_incomplete == 0
        checked += 1
    assert checked >= 200

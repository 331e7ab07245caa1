"""One per-layer bound in an LC-OPG window gives the search of two.

``LcOpgSolver._cp_window`` bounds each layer's chunk sum once, at
``Budgets.available(l) = min(m_peak[l], capacity[l])``, where the paper
states two constraints over the same terms: C2 at ``m_peak[l]`` and C3 at
``capacity[l]``.  Bounds propagation of the pair stops at the fixpoint of
the tighter one, so the search must branch, prune and return exactly as it
did over the pair.  These randomized windows hold it to that — including
layers where ``m_peak`` is the binding bound and budgets small enough that
the search runs out of nodes.
"""

import random
from typing import Dict, List

import pytest

from repro.opg.cpsat.model import CpModel, SolveStatus
from repro.opg.cpsat.search import CpSolver

N_WINDOWS = 120


def _random_window(rng: random.Random) -> dict:
    """Weights with interval candidate sets over layers whose transform
    volume (``m_peak``) and load capacity differ; half the layers bind on
    ``m_peak``."""
    n_layers = rng.randint(6, 14)
    capacity = [rng.randint(1, 6) for _ in range(n_layers)]
    m_peak = [rng.randint(1, c) if rng.random() < 0.5 else c + rng.randint(0, 3)
              for c in capacity]
    available = [min(c, m) for c, m in zip(capacity, m_peak)]
    left = list(available)
    weights = []
    for _ in range(rng.randint(2, 7)):
        consumer = rng.randint(3, n_layers)
        candidates = list(range(max(0, consumer - rng.randint(2, 6)), consumer))
        total = rng.randint(1, max(1, sum(available[l] for l in candidates)))
        # Earliest-fit packing against what earlier weights left: a hint
        # where it fits, as LC-OPG seeds its EDF packing.
        hint: Dict[int, int] = {}
        need = total
        for l in candidates:
            take = min(need, left[l])
            if take > 0:
                hint[l] = take
                need -= take
        if need == 0 and rng.random() < 0.7:
            for l, take in hint.items():
                left[l] -= take
        else:
            hint = {}
        weights.append((consumer, candidates, total, hint))
    return {"capacity": capacity, "m_peak": m_peak, "weights": weights,
            "max_nodes": rng.choice((20, 60, 500))}


def _build(window: dict, *, merged: bool) -> CpModel:
    """The window's CP model in ``_cp_window``'s variable and constraint
    order, with one per-layer bound (``merged``) or the C2/C3 pair."""
    capacity, m_peak = window["capacity"], window["m_peak"]
    model = CpModel()
    by_layer: Dict[int, List] = {}
    z_vars = []
    for consumer, candidates, total, hint in window["weights"]:
        terms = []
        for l in candidates:
            x = model.new_int(0, min(total, capacity[l], m_peak[l]), hint=hint.get(l, 0))
            terms.append((x, 1))
            by_layer.setdefault(l, []).append((x, 1))
        z = model.new_int(min(candidates), consumer,
                          hint=min(hint) if hint else min(candidates))
        z_vars.append(z)
        model.add_sum_eq(terms, total)
        for (x, _), l in zip(terms, candidates):
            model.add_implication(x, 1, z, l)
    for l, terms in by_layer.items():
        if merged:
            model.add_sum_le(terms, min(m_peak[l], capacity[l]))
        else:
            model.add_sum_le(terms, m_peak[l])
            model.add_sum_le(terms, capacity[l])
    model.minimize([(z, -1) for z in z_vars],
                   offset=sum(consumer for consumer, *_ in window["weights"]))
    return model


def test_merged_layer_bound_searches_like_the_pair():
    rng = random.Random(0xC2C3)
    statuses = set()
    m_peak_binds = 0
    for case in range(N_WINDOWS):
        window = _random_window(rng)
        solver = CpSolver(max_nodes=window["max_nodes"])
        pair = solver.solve(_build(window, merged=False))
        merged = solver.solve(_build(window, merged=True))
        assert (merged.status, merged.values, merged.objective) == (
            pair.status, pair.values, pair.objective), f"case {case}"
        assert merged.nodes_explored == pair.nodes_explored, f"case {case}"
        # The fixpoints agree, so every completed drain leaves the trail
        # equally deep (failed drains, which stop at the conflict, are not
        # sampled).
        assert merged.stats.trail_depth_peak == pair.stats.trail_depth_peak, f"case {case}"
        statuses.add(pair.status)
        m_peak_binds += any(m < c for m, c in zip(window["m_peak"], window["capacity"]))
    # The windows reach every outcome and bind on m_peak.
    assert statuses >= {SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE}
    assert m_peak_binds >= N_WINDOWS // 2


@pytest.mark.parametrize("merged", [False, True], ids=["pair", "merged"])
def test_tighter_bound_decides_feasibility(merged):
    """A layer whose m_peak admits fewer chunks than its capacity caps the
    sum at m_peak either way."""
    window = {"capacity": [5, 5], "m_peak": [1, 5], "max_nodes": 500,
              "weights": [(2, [0, 1], 4, {}), (1, [0], 1, {})]}
    solution = CpSolver().solve(_build(window, merged=merged))
    assert solution.status is SolveStatus.OPTIMAL
    x0, x1, z0, x2, z1 = solution.values
    assert x0 + x2 <= 1 and (x0, x1, x2) == (0, 4, 1)

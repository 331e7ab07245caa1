"""Randomized differential test: fast EDF oracle / prover ≡ seed reference.

Safety net for the numpy weight-major EDF rewrite and the incremental
release-vector prover: on seeded random windows, ``edf_feasible`` must
produce *exactly* the packing of the preserved seed implementation
(``edf_feasible_reference`` in ``tests/oracles``), and ``prove_window``
under generous limits must agree with ``prove_window_reference`` on both
the proof verdict and the objective value — the same pattern
``test_cpsat_differential`` uses for the CP core.
"""

import random

from repro.opg.exact import _objective, edf_feasible, prove_window
from repro.opg.heuristics import Budgets
from repro.opg.problem import WeightInfo
from tests.oracles import edf_feasible_reference, prove_window_reference

N_INSTANCES = 150


def _random_window(rng: random.Random):
    """A seeded (weights, releases, budgets) window instance.

    Mix of loose, tight, and over-committed windows: capacities in [0, 4]
    (zeros give holes in the availability), 2-7 weights with interval
    candidate sets of width <= 8.
    """
    n_layers = rng.randint(6, 18)
    capacity = [rng.randint(0, 4) for _ in range(n_layers)]
    m_peak = [rng.randint(2, 6) for _ in range(n_layers)]
    budgets = Budgets(capacity, m_peak)
    weights = []
    releases = {}
    for i in range(rng.randint(2, 7)):
        consumer = rng.randint(2, n_layers - 1)
        lo = max(0, consumer - rng.randint(1, 8))
        candidates = list(range(lo, consumer))
        weights.append(
            WeightInfo(
                name=f"w{i}",
                nbytes=100,
                consumer_layer=consumer,
                total_chunks=rng.randint(0, 6),
                candidates=candidates,
            )
        )
        releases[f"w{i}"] = rng.choice(candidates)
    return weights, releases, budgets


class TestEdfOracleDifferential:
    def test_fast_matches_reference_packing_exactly(self):
        rng = random.Random(0xEDF)
        agree_feasible = agree_infeasible = 0
        for _ in range(N_INSTANCES):
            weights, releases, budgets = _random_window(rng)
            fast = edf_feasible(weights, releases, budgets)
            ref = edf_feasible_reference(weights, releases, budgets)
            # Not just same feasibility — the identical assignment dicts.
            assert fast == ref
            if ref is None:
                agree_infeasible += 1
            else:
                agree_feasible += 1
        # The generator must actually exercise both outcomes.
        assert agree_feasible > 10
        assert agree_infeasible > 10

    def test_budgets_untouched_by_both_engines(self):
        rng = random.Random(7)
        weights, releases, budgets = _random_window(rng)
        before = (list(budgets.capacity), list(budgets.m_peak))
        edf_feasible(weights, releases, budgets)
        edf_feasible_reference(weights, releases, budgets)
        assert (budgets.capacity, budgets.m_peak) == before


def _incumbent_for(weights, budgets):
    """A valid (usually suboptimal) incumbent: every weight packed alone
    earliest-first from its earliest candidate."""
    releases = {}
    for w in weights:
        avail = [l for l in w.candidates if budgets.available(l) > 0]
        if not avail:
            return None
        releases[w.name] = min(avail)
    return edf_feasible_reference(weights, releases, budgets)


class TestProverDifferential:
    def test_fast_prover_agrees_with_reference(self):
        rng = random.Random(0xBEEF)
        proofs = 0
        for _ in range(60):
            weights, _, budgets = _random_window(rng)
            # Drop zero-chunk weights: they carry no objective weight and
            # the incumbent helper cannot anchor a min() layer for them.
            weights = [w for w in weights if w.total_chunks > 0]
            if not weights:
                continue
            incumbent = _incumbent_for(weights, budgets)
            if incumbent is None or any(not a for a in incumbent.values()):
                continue
            fast, fast_proven = prove_window(
                weights, budgets, incumbent, node_limit=500_000
            )
            ref, ref_proven = prove_window_reference(
                weights, budgets, incumbent, node_limit=500_000
            )
            # Generous limits: both searches run to exhaustion, so the
            # verdicts and the proven-optimal objective must coincide.
            assert fast_proven == ref_proven
            if fast_proven:
                assert _objective(weights, fast) == _objective(weights, ref)
                proofs += 1
        assert proofs > 10

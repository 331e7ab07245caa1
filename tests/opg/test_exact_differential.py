"""Randomized differential test: fast EDF oracle / prover ≡ seed reference.

Safety net for the scalar weight-major EDF and the incremental
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


LOOKBACK = 16


def _lookback_window(rng: random.Random):
    """A window at the solver's scale: segments ``[release, i_w)`` of 1-16
    layers (the default ``lookback``), zero-capacity layers inside them,
    zero-chunk weights, and some releases at or past their consumer."""
    n_layers = rng.randint(LOOKBACK + 2, 48)
    capacity = [0 if rng.random() < 0.25 else rng.randint(1, 6) for _ in range(n_layers)]
    budgets = Budgets(capacity, [rng.randint(3, 8) for _ in range(n_layers)])
    weights, releases = [], {}
    for i in range(rng.randint(1, 12)):
        consumer = rng.randint(1, n_layers)
        roll = rng.random()
        if roll < 0.1:
            release = min(n_layers, consumer + rng.randint(0, 2))  # at or past i_w
        else:
            release = max(0, consumer - rng.randint(1, LOOKBACK))
        chunks = 0 if roll > 0.85 else rng.randint(1, 3 * max(1, consumer - release) + 1)
        name = f"w{i}"
        weights.append(
            WeightInfo(
                name=name,
                nbytes=100,
                consumer_layer=consumer,
                total_chunks=chunks,
                candidates=list(range(max(0, consumer - LOOKBACK), consumer)),
            )
        )
        releases[name] = release
    return weights, releases, budgets


def _same_packing(fast, ref):
    """Equal contents and equal key order, per weight and per layer."""
    if ref is None:
        return fast is None
    return fast is not None and [(k, list(v.items())) for k, v in fast.items()] == [
        (k, list(v.items())) for k, v in ref.items()
    ]


class TestEdfLookbackScale:
    def test_matches_reference_contents_and_key_order(self):
        rng = random.Random(0x16)
        outcomes = {"feasible": 0, "infeasible": 0, "zero_chunk_packed": 0,
                    "hole_inside_packing": 0, "release_at_or_past_consumer": 0}
        for _ in range(400):
            weights, releases, budgets = _lookback_window(rng)
            fast = edf_feasible(weights, releases, budgets)
            ref = edf_feasible_reference(weights, releases, budgets)
            assert _same_packing(fast, ref)
            outcomes["feasible" if ref is not None else "infeasible"] += 1
            if any(releases[w.name] >= w.consumer_layer for w in weights):
                outcomes["release_at_or_past_consumer"] += 1
            if ref is None:
                continue
            if any(w.total_chunks == 0 for w in weights):
                outcomes["zero_chunk_packed"] += 1
            for packed in ref.values():
                layers = sorted(packed)
                if layers and any(budgets.available(l) == 0 for l in range(layers[0], layers[-1])):
                    outcomes["hole_inside_packing"] += 1
                    break
        assert min(outcomes.values()) >= 20, outcomes

    def test_hand_built_edges(self):
        budgets = Budgets([2, 0, 3, 0, 1, 2, 2, 2], [9] * 8)
        late = WeightInfo("late", 100, 8, 3, list(range(8)))
        early = WeightInfo("early", 100, 5, 4, list(range(5)))
        empty = WeightInfo("empty", 100, 6, 0, list(range(6)))
        one = WeightInfo("one", 100, 7, 2, [6])
        # Input order keys the result; deadline order packs it, skipping the
        # zero-capacity layers 1 and 3.
        releases = {"late": 0, "early": 0, "empty": 6, "one": 6}
        got = edf_feasible([late, early, empty, one], releases, budgets)
        assert _same_packing(got, edf_feasible_reference([late, early, empty, one], releases, budgets))
        assert got == {"late": {2: 1, 4: 1, 5: 1}, "early": {0: 2, 2: 2}, "empty": {}, "one": {6: 2}}
        assert list(got) == ["late", "early", "empty", "one"]
        # A one-layer segment that is too small, and a release at the consumer.
        assert edf_feasible([WeightInfo("x", 100, 7, 3, [6])], {"x": 6}, budgets) is None
        assert edf_feasible([WeightInfo("x", 100, 7, 1, [6])], {"x": 7}, budgets) is None
        assert edf_feasible([empty], {"empty": 7}, budgets) == {"empty": {}}


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

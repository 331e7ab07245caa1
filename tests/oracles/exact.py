"""Exact-prover oracles: the seed EDF sweep and release-vector search.

:func:`repro.opg.exact.edf_feasible` and :func:`repro.opg.exact.prove_window`
must agree with these — the identical packing, the same proof verdict and
the same proven objective (``tests/opg/test_exact_differential``).  They
are also the seed baseline the compile-latency A/B bench swaps into
``repro.opg.lcopg``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

from repro.opg.exact import _objective, _release_search_prep
from repro.opg.heuristics import Budgets
from repro.opg.problem import WeightInfo


def edf_feasible_reference(
    weights: Sequence[WeightInfo],
    releases: Dict[str, int],
    budgets: Budgets,
) -> Optional[Dict[str, Dict[int, int]]]:
    """Seed layer-major EDF sweep, kept as the differential-test oracle.

    Standard earliest-deadline-first over capacitated slots: walk layers in
    ascending order, at each layer give its remaining capacity to the active
    weights (released, not yet due) with the nearest deadline ``i_w``.  For
    interval-structured availability this greedy is exact.
    """
    if not weights:
        return {}
    lo = min(releases[w.name] for w in weights)
    hi = max(w.consumer_layer for w in weights)
    remaining = {w.name: w.total_chunks for w in weights}
    by_deadline = sorted(weights, key=lambda w: w.consumer_layer)
    assignment: Dict[str, Dict[int, int]] = {w.name: {} for w in weights}
    for layer in range(lo, hi):
        cap = budgets.available(layer)
        if cap <= 0:
            continue
        for w in by_deadline:
            if cap <= 0:
                break
            if remaining[w.name] == 0:
                continue
            if not releases[w.name] <= layer < w.consumer_layer:
                continue
            take = min(cap, remaining[w.name])
            assignment[w.name][layer] = take
            remaining[w.name] -= take
            cap -= take
    if any(remaining.values()):
        return None
    return assignment


def prove_window_reference(
    weights: Sequence[WeightInfo],
    budgets: Budgets,
    incumbent: Dict[str, Dict[int, int]],
    *,
    time_limit_s: Optional[float] = None,
    node_limit: int = 50_000,
) -> Tuple[Dict[str, Dict[int, int]], bool]:
    """Seed release-vector search (full EDF re-pack at every leaf), kept as
    the oracle for differential tests and the compile-latency A/B baseline.

    Bounded by ``node_limit``, like ``prove_window``; ``time_limit_s``
    adds the seed's wall-clock cut (the compile-latency bench passes 1 s)."""
    if not weights:
        return dict(incumbent), True
    ordered = sorted(weights, key=lambda w: (w.consumer_layer, w.name))
    prep = _release_search_prep(ordered, budgets)
    if prep is None:
        return dict(incumbent), False
    release_options, suffix_solo = prep

    best_assignment = dict(incumbent)
    best_obj = _objective(ordered, incumbent)
    deadline = time.perf_counter() + time_limit_s if time_limit_s is not None else None
    nodes = 0
    exhausted = True

    releases: Dict[str, int] = {}

    def search(index: int, dist_so_far: int) -> None:
        nonlocal nodes, best_obj, best_assignment, exhausted
        if not exhausted:
            return
        nodes += 1
        if nodes > node_limit or (deadline is not None and time.perf_counter() > deadline):
            exhausted = False
            return
        if dist_so_far + suffix_solo[index] >= best_obj:
            return  # cannot beat the incumbent
        if index == len(ordered):
            packed = edf_feasible_reference(ordered, releases, budgets)
            if packed is not None:
                obj = _objective(ordered, packed)
                if obj < best_obj:
                    best_obj = obj
                    best_assignment = packed
            return
        w = ordered[index]
        for release in release_options[w.name]:
            releases[w.name] = release
            search(index + 1, dist_so_far + (w.consumer_layer - release))
            if not exhausted:
                break
        releases.pop(w.name, None)

    search(0, 0)
    return best_assignment, exhausted

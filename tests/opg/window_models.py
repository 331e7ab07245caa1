"""Synthetic OPG windows for solver tests and benchmarks.

:func:`build_window_model` reproduces the exact shape
``LcOpgSolver._cp_window`` emits — per-(weight, layer) chunk variables over
interval candidate sets, per-weight release variables, C0 completeness
sums, C1 loading-distance implications, one per-layer capacity sum (the
tighter of C2 and C3), and the total-loading-distance objective — so solver behaviour measured on it
tracks the production workload.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.opg.cpsat.model import CpModel


def build_window_model(
    n_weights: int,
    n_layers: int,
    cap: int,
    seed: int = 0,
    *,
    with_hints: bool = True,
) -> CpModel:
    """One synthetic OPG window as a CpModel (see module docstring).

    ``with_hints`` mirrors production (LC-OPG always seeds EDF/greedy
    hints); pass False to benchmark the raw search.
    """
    rng = random.Random(seed)
    model = CpModel()
    by_layer: Dict[int, List[Tuple[object, int]]] = {}
    z_vars = []
    offset = 0
    remaining_cap = {l: cap for l in range(n_layers)}
    for w in range(n_weights):
        consumer = rng.randint(min(5, n_layers - 1), n_layers - 1)
        lookback = rng.randint(3, 7)
        candidates = list(range(max(0, consumer - lookback), consumer))
        aggregate = sum(remaining_cap[l] for l in candidates)
        if aggregate <= 0:
            continue  # candidate span exhausted: keep the workload feasible
        total = rng.randint(1, min(12, aggregate))
        # Earliest-fit packing against leftover capacity (EDF-flavoured):
        # always computed as the feasibility witness, attached as decision
        # hints only when ``with_hints`` (mirroring production LC-OPG).
        packing: Dict[int, int] = {}
        need = total
        for l in candidates:
            if need <= 0:
                break
            take = min(need, remaining_cap[l])
            if take > 0:
                packing[l] = take
                remaining_cap[l] -= take
                need -= take
        hint = packing if with_hints else {}
        terms = []
        for l in candidates:
            x = model.new_int(
                0, min(total, cap), f"x[{w},{l}]", hint=hint.get(l, 0) if hint else None
            )
            terms.append((x, 1))
            by_layer.setdefault(l, []).append((x, 1))
        z = model.new_int(
            min(candidates),
            consumer,
            f"z[{w}]",
            hint=min(hint) if hint else None,
        )
        z_vars.append(z)
        model.add_sum_eq(terms, total, name=f"C0[{w}]")
        for (x, _), l in zip(terms, candidates):
            model.add_implication(x, 1, z, l)
        offset += consumer
    for l, terms in by_layer.items():
        model.add_sum_le(terms, cap, name=f"C3[{l}]")
    model.minimize([(z, -1) for z in z_vars], offset=offset)
    return model

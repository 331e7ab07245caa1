"""Greedy heuristic scheduler — the solver's final fallback tier (C4).

Assigns each weight's chunks to its candidate layers latest-first (loading
as close to consumption as possible, which minimises residency), respecting
per-layer capacity and M_peak budgets.  Anything that cannot be placed is
preloaded.  Always succeeds, so the tiered fallback terminates.

The greedy schedule also seeds the CP search as decision hints, giving the
branch-and-bound an immediate incumbent.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence

from repro.opg.problem import OpgProblem, WeightInfo


class Budgets:
    """Mutable per-layer chunk budgets shared across scheduling windows.

    ``max_soft_rounds`` caps how many times the capacities may be relaxed
    over the budgets' whole lifetime — the relaxation is global state, so an
    uncapped per-window retry loop would compound past what plan validation
    (and the paper's C4) admits.

    ``available`` is the solver's single hottest query (millions of calls
    per compile), so the ``max(0, min(C_l, M_peak_l))`` is memoised in a
    per-layer array maintained by every mutator — ``consume``/``release``
    update one slot, ``scale_capacity`` (the soft-round mutation) rebuilds
    the whole array.  ``capacity`` and ``m_peak`` must only be mutated
    through those methods.
    """

    def __init__(self, capacity: Sequence[int], m_peak: Sequence[int], *, max_soft_rounds: int = 2) -> None:
        self.capacity = list(capacity)
        self.m_peak = list(m_peak)
        self.max_soft_rounds = max_soft_rounds
        self.soft_rounds_used = 0
        self._avail = [max(0, min(c, m)) for c, m in zip(self.capacity, self.m_peak)]

    def available(self, layer: int) -> int:
        return self._avail[layer]

    def copy(self) -> "Budgets":
        """An independent copy for trial packings (list copies, no rebuild
        of the availability array)."""
        clone = copy.copy(self)
        clone.capacity, clone.m_peak, clone._avail = self.capacity[:], self.m_peak[:], self._avail[:]
        return clone

    def available_range(self, lo: int, hi: int) -> List[int]:
        """Per-layer availability over ``[lo, hi)`` (a copy, safe to mutate)."""
        return self._avail[lo:hi]

    def consume(self, layer: int, chunks: int) -> None:
        if chunks > self._avail[layer]:
            raise ValueError(
                f"layer {layer}: consuming {chunks} chunks exceeds available {self._avail[layer]}"
            )
        self.capacity[layer] -= chunks
        self.m_peak[layer] -= chunks
        self._avail[layer] = max(0, min(self.capacity[layer], self.m_peak[layer]))

    def release(self, layer: int, chunks: int) -> None:
        """Return chunks to a layer (local-improvement repacking)."""
        self.capacity[layer] += chunks
        self.m_peak[layer] += chunks
        self._avail[layer] = max(0, min(self.capacity[layer], self.m_peak[layer]))

    def scale_capacity(self, factor: float, layers: Optional[Sequence[int]] = None) -> bool:
        """Soft thresholding: relax remaining capacities (C4 tier 1).

        ``layers`` scopes the relaxation to the window that needs rescuing
        (the quota is still charged globally); ``None`` relaxes every layer.
        Scoping keeps a soft round fired by one window from silently
        changing the budgets every downstream window observes — which is
        what lets the window-reuse fingerprint stay phase-free.

        Returns False when the global relaxation quota is exhausted.
        """
        if self.soft_rounds_used >= self.max_soft_rounds:
            return False
        if layers is None:
            self.capacity = [int(c * factor) for c in self.capacity]
            self._avail = [max(0, min(c, m)) for c, m in zip(self.capacity, self.m_peak)]
        else:
            for layer in layers:
                self.capacity[layer] = int(self.capacity[layer] * factor)
                self._avail[layer] = max(0, min(self.capacity[layer], self.m_peak[layer]))
        self.soft_rounds_used += 1
        return True


def greedy_assign(
    weight: WeightInfo,
    budgets: Budgets,
    *,
    candidates: Optional[Sequence[int]] = None,
    commit: bool = True,
) -> Optional[Dict[int, int]]:
    """Place one weight's chunks latest-first; None if it does not fit.

    With ``commit=False`` the budgets are left untouched (feasibility probe).
    """
    layers = sorted(candidates if candidates is not None else weight.candidates, reverse=True)
    remaining = weight.total_chunks
    assignment: Dict[int, int] = {}
    for layer in layers:
        if remaining == 0:
            break
        take = min(remaining, budgets.available(layer))
        if take > 0:
            assignment[layer] = take
            remaining -= take
    if remaining > 0:
        return None
    if commit:
        for layer, chunks in assignment.items():
            budgets.consume(layer, chunks)
    return assignment


def greedy_schedule(
    problem: OpgProblem,
    weights: Sequence[WeightInfo],
    budgets: Budgets,
    *,
    improvement_passes: int = 2,
) -> Dict[str, Optional[Dict[int, int]]]:
    """Schedule ``weights`` (consumption order) greedily against ``budgets``.

    Returns weight name -> assignment, or None where the weight must be
    preloaded.  Budgets are committed for placed weights.  After the first
    pass, ``improvement_passes`` rounds of re-packing try to push each
    weight's chunks later given everyone else's placement (shrinking total
    loading distance toward the optimum).
    """
    out: Dict[str, Optional[Dict[int, int]]] = {}
    ordered = sorted(weights, key=lambda w: w.consumer_layer)
    for w in ordered:
        if w.forced_preload:
            out[w.name] = None
            continue
        out[w.name] = greedy_assign(w, budgets)
    by_name = {w.name: w for w in weights}
    for _ in range(improvement_passes):
        improved = False
        for name, assignment in out.items():
            if not assignment:
                continue
            w = by_name[name]
            # Temporarily release this weight's chunks and re-pack.
            for layer, chunks in assignment.items():
                budgets.release(layer, chunks)
            better = greedy_assign(w, budgets)
            if better is None:  # should not happen; restore
                for layer, chunks in assignment.items():
                    budgets.consume(layer, chunks)
                continue
            if min(better) > min(assignment):
                out[name] = better
                improved = True
            elif better != assignment:
                # Same distance; keep the re-pack (it is committed already).
                out[name] = better
        if not improved:
            break
    return out

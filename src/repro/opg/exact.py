"""Exact window reasoning: the EDF oracle, the SRPT distance floor and the
release-vector prover that close the CP incumbent's optimality gap.

The OPG chunk formulation has a large plateau — the objective depends only
on each weight's *earliest* transform layer (z_w), not on how the remaining
chunks distribute above it — so generic branch-and-bound rarely proves
optimality within budget (the paper's Table 4 reports OPTIMAL only for its
smallest model).  This module exploits the problem's structure to finish
the proof:

- candidate sets are *intervals* of layers ``[i_w - lookback, i_w)``, so
  feasibility of a release-vector (one z per weight) reduces to a
  transportation problem with consecutive-ones structure, decidable exactly
  by an earliest-deadline-first greedy (:func:`edf_feasible`);
- the search enumerates release-vectors in objective order, pruning against
  the incumbent; exhausting the improving space *proves* the incumbent
  optimal.

``prove_window`` is invoked by LC-OPG after the CP search returns a
FEASIBLE incumbent on a modest-sized window; on success the window's status
upgrades to OPTIMAL (and the incumbent may improve).

:func:`srpt_distance_floor` runs *before* any CP model exists.  With the
lookback dropped, one window is a preemptive single-machine schedule run
backwards in layer order (weight = job of ``total_chunks`` units released
at ``i_w - 1``, layer = slot of ``Budgets.available`` units), and its
total loading distance is, up to a constant, the jobs' summed completion
slots, which reverse-time SRPT minimises (Schrage 1968).  LC-OPG commits a
window's decision hint without search when the hint already meets that
floor.

EDF packs *weight-major*: weights in deadline order each take the
earliest available capacity at or after their release.  For interval
availability this is provably identical to the layer-major EDF sweep
(peel the earliest-deadline weight: it wins every contested slot in its
window under either rule, and the residual instance recurses).
Weight-major packing is one scalar pass per weight over a copy of
``Budgets.available_range``, shared by both callers through
:class:`_EdfPacker`.  A segment spans at most ``lookback`` (16) layers,
where plain Python beats numpy's per-call overhead.  The packer is
*incremental*: the release-vector search packs one weight per node with
O(segment) undo, so an infeasible prefix prunes its whole subtree instead
of being rediscovered at every descendant leaf.

The seed layer-major sweep and full-re-pack prover are the oracles in
``tests/oracles``; ``tests/opg/test_exact_differential`` checks on
randomized instances, lookback-scale ones included, that this module
returns the packings (contents and key order), verdicts and objectives
they do.  The two may differ only in *node accounting* when
``node_limit`` interrupts the search, because subtree pruning visits fewer
nodes.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.opg.heuristics import Budgets
from repro.opg.problem import WeightInfo


def edf_feasible(
    weights: Sequence[WeightInfo],
    releases: Dict[str, int],
    budgets: Budgets,
) -> Optional[Dict[str, Dict[int, int]]]:
    """Pack every weight's chunks into layers >= its release; None if impossible.

    Weight-major EDF over one copy of ``Budgets.available_range``: weights
    in deadline order each fill the earliest remaining capacity of
    ``[release, i_w)``.  Produces exactly the packing of the seed
    layer-major EDF sweep, keyed in ``weights`` order (a zero-chunk weight
    packs to ``{}``), each weight's layers ascending.
    """
    if not weights:
        return {}
    lo = min(releases[w.name] for w in weights)
    packer = _EdfPacker(lo, max(w.consumer_layer for w in weights), budgets)
    assignment: Dict[str, Dict[int, int]] = {w.name: {} for w in weights}
    for w in sorted(weights, key=lambda w: w.consumer_layer):
        if w.total_chunks == 0:
            continue
        if not packer.push(w, releases[w.name]):
            return None
        assignment[w.name] = {lo + i: take for i, take in packer.last_takes()}
    return assignment


def srpt_distance_floor(weights: Sequence[WeightInfo], budgets: Budgets) -> Optional[int]:
    """Lower bound on one window's total loading distance sum(i_w - z_w).

    Walks layers downward from the highest consumer.  Weight ``w`` becomes
    available at layer ``i_w - 1`` and needs ``total_chunks`` units; layer
    ``l`` supplies ``budgets.available(l)`` units, which go to the available
    weight with the fewest remaining chunks first, and ``z_w`` is the layer
    where ``w``'s last chunk lands.  The walk ignores the lookback, so it
    solves a relaxation of the window's CP model, and SRPT minimises the
    number of unfinished weights after every layer — hence their summed
    distance.  The bound is exact when every candidate interval reaches
    layer 0.  Returns None if a weight has no chunks or cannot finish by
    layer 0.  Budgets are only *read*.
    """
    if any(w.total_chunks <= 0 for w in weights):
        return None
    pending = sorted(weights, key=lambda w: w.consumer_layer)
    released: List[Tuple[int, int]] = []  # (remaining chunks, tie-break id)
    unfinished = len(pending)
    floor = 0
    layer = pending[-1].consumer_layer if pending else 0
    while unfinished:
        layer -= 1
        if layer < 0:
            return None
        while pending and pending[-1].consumer_layer > layer:
            w = pending.pop()
            heapq.heappush(released, (w.total_chunks, len(pending)))
            floor += w.consumer_layer
        cap = budgets.available(layer)
        while cap > 0 and released:
            remaining, key = released[0]
            if remaining > cap:
                heapq.heapreplace(released, (remaining - cap, key))
                break
            heapq.heappop(released)
            cap -= remaining
            floor -= layer
            unfinished -= 1
    return floor


class _EdfPacker:
    """Incremental weight-major EDF packing over one window's availability.

    ``push`` packs one weight earliest-first from its release and records the
    takes for O(segment) undo via ``pop``; a failed ``push`` leaves the
    availability untouched.  After pushing weights 0..k in deadline order the
    internal state equals the EDF packing of that prefix, so a failed push
    proves every completion of the prefix infeasible.
    """

    def __init__(self, lo: int, hi: int, budgets: Budgets) -> None:
        self.lo = lo
        self.avail = budgets.available_range(lo, hi)
        self._stack: List[Tuple[WeightInfo, List[Tuple[int, int]]]] = []

    def push(self, w: WeightInfo, release: int) -> bool:
        avail = self.avail
        remaining = w.total_chunks
        takes: List[Tuple[int, int]] = []
        for i in range(release - self.lo, w.consumer_layer - self.lo):
            cap = avail[i]
            if cap <= 0:
                continue
            take = cap if cap < remaining else remaining
            avail[i] = cap - take
            takes.append((i, take))
            remaining -= take
            if remaining == 0:
                break
        if remaining:
            for i, take in takes:
                avail[i] += take
            return False
        self._stack.append((w, takes))
        return True

    def last_takes(self) -> List[Tuple[int, int]]:
        """``(offset from lo, chunks)`` of the last push, layers ascending."""
        return self._stack[-1][1]

    def pop(self) -> None:
        _, takes = self._stack.pop()
        for i, take in takes:
            self.avail[i] += take

    def objective(self) -> int:
        """Total loading distance of the currently-packed weights."""
        lo = self.lo
        return sum(w.consumer_layer - lo - takes[0][0] for w, takes in self._stack)

    def materialize(self) -> Dict[str, Dict[int, int]]:
        lo = self.lo
        return {w.name: {lo + i: take for i, take in takes} for w, takes in self._stack}


def _objective(weights: Sequence[WeightInfo], assignment: Dict[str, Dict[int, int]]) -> int:
    """Total loading distance implied by the actual earliest transforms."""
    return sum(w.consumer_layer - min(assignment[w.name]) for w in weights)


def _release_search_prep(
    ordered: Sequence[WeightInfo], budgets: Budgets
) -> Optional[Tuple[Dict[str, List[int]], List[int]]]:
    """Per-weight release options (latest-first) and the solo-distance
    suffix bound the prover prunes with; None when some weight has no
    feasible release to reason about."""
    solo_dist: Dict[str, int] = {}
    release_options: Dict[str, List[int]] = {}
    for w in ordered:
        candidates = sorted((l for l in w.candidates if budgets.available(l) > 0), reverse=True)
        if not candidates:
            return None  # cannot reason about this window
        release_options[w.name] = candidates
        filled, best = 0, candidates[0]
        for l in candidates:
            filled += budgets.available(l)
            best = l
            if filled >= w.total_chunks:
                break
        solo_dist[w.name] = w.consumer_layer - best
    suffix_solo = [0] * (len(ordered) + 1)
    for i in range(len(ordered) - 1, -1, -1):
        suffix_solo[i] = suffix_solo[i + 1] + solo_dist[ordered[i].name]
    return release_options, suffix_solo


def prove_window(
    weights: Sequence[WeightInfo],
    budgets: Budgets,
    incumbent: Dict[str, Dict[int, int]],
    *,
    node_limit: int = 50_000,
) -> Tuple[Dict[str, Dict[int, int]], bool]:
    """Prove (or improve) the incumbent's total loading distance.

    Returns ``(best_assignment, proven)``.  The search enumerates release
    vectors weight by weight, latest-first, pruning any prefix whose
    optimistic objective (chosen releases + each remaining weight's solo
    best) cannot beat the best known — and any prefix whose incremental EDF
    packing already fails.  Budgets are only *read*.
    """
    if not weights:
        return dict(incumbent), True
    ordered = sorted(weights, key=lambda w: (w.consumer_layer, w.name))
    prep = _release_search_prep(ordered, budgets)
    if prep is None:
        return dict(incumbent), False
    release_options, suffix_solo = prep
    lo = min(opts[-1] for opts in release_options.values())
    hi = max(w.consumer_layer for w in ordered)
    packer = _EdfPacker(lo, hi, budgets)

    best_assignment = dict(incumbent)
    best_obj = _objective(ordered, incumbent)
    nodes = 0
    exhausted = True

    def search(index: int, dist_so_far: int) -> None:
        nonlocal nodes, best_obj, best_assignment, exhausted
        if not exhausted:
            return
        nodes += 1
        if nodes > node_limit:
            exhausted = False
            return
        if dist_so_far + suffix_solo[index] >= best_obj:
            return  # cannot beat the incumbent
        if index == len(ordered):
            obj = packer.objective()
            if obj < best_obj:
                best_obj = obj
                best_assignment = packer.materialize()
            return
        w = ordered[index]
        for release in release_options[w.name]:
            if packer.push(w, release):
                search(index + 1, dist_so_far + (w.consumer_layer - release))
                packer.pop()
            if not exhausted:
                break

    search(0, 0)
    return best_assignment, exhausted

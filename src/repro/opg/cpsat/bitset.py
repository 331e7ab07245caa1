"""Bitset propagation engine: packed watcher bitsets + resident sums.

The one domain store, undo trail and propagator behind
:class:`repro.opg.cpsat.search.CpSolver`.  Propagation is incremental —
only the constraints watching a tightened bound are re-evaluated — and
the per-evaluation cost is kept low by two representations:

- **Resident constraint sums.**  ``csum_lo[c] = Σ coef·lo`` and
  ``csum_hi[c] = Σ coef·hi`` live alongside the domains and are updated by
  the same trail operations that move a bound (and reversed by undo), so a
  linear re-evaluation is two subtractions plus a width check per term —
  no O(terms) re-sum, ever.  The root-node values are summed in the one
  pass over the model's constraint columns that also builds the watcher
  masks and per-variable membership.
- **Packed uint64 bitsets for watcher state.**  Each variable carries a
  precomputed constraint mask (bit ``c`` = linear ``c``, bit
  ``n_linears + j`` = implication ``j``); a tightening marks all watchers
  dirty with ONE ``dirty |= mask`` word-parallel OR instead of a Python
  loop with membership checks.  The drain pops lowest-set-bits, so
  constraints re-evaluate in ascending id order.  Bounds propagation is
  confluent, so any evaluation order stops at the same unique fixpoint —
  the one the full-sweep oracle in ``tests/oracles`` reaches.
- **An unassigned-variable bitset for branching.**  Variable selection
  (smallest domain, objective vars first, lowest index on ties) walks only
  the set bits of ``unassigned & obj_mask`` (then ``unassigned``) instead
  of scanning every variable, with an early exit at width 1 — the minimum
  an unassigned variable can have, so the first hit wins every tie exactly
  like the full ascending scan does.

Domains are packed int64 buffers (``array('q')``), as cheap as lists for
scalar reads in the propagation cascade.  A full-sweep numpy evaluation
per node was prototyped and rejected: at
OPG window sizes (tens of constraints, cascades touching a handful) the
fixed per-ufunc cost exceeds the entire scalar cascade — the measured
tradeoff is recorded in DESIGN.md.

One object implements both the trail API (``mark`` / ``undo_to`` /
``set_lo`` / ``set_hi`` / ``lower_bound`` / ``entries``) and the
propagator API (``propagate_all`` / ``propagate_from`` / ``abandon``)
that the search loop in :mod:`repro.opg.cpsat.search` drives.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from repro.opg.cpsat.model import CpModel
from repro.opg.cpsat.stats import PropagationStats


class BitsetState:
    """Trail + propagator over packed bitsets and resident constraint sums."""

    __slots__ = (
        "lo",
        "hi",
        "entries",
        "lower_bound",
        "obj_coef",
        "n_linears",
        "con_lo",
        "con_hi",
        "con_terms",
        "con_unit",
        "csum_lo",
        "csum_hi",
        "var_lin",
        "var_lin_unit",
        "imps",
        "watch_lo_mask",
        "watch_hi_mask",
        "var_bit",
        "dirty",
        "unassigned",
        "obj_mask",
        "_all_dirty",
        "epoch",
        "lo_stamp",
        "hi_stamp",
    )

    def __init__(self, model: CpModel) -> None:
        index = model.freeze()
        n_vars = len(model.var_lo)
        lin_terms = model.lin_terms
        nl = len(lin_terms)
        ni = len(model.implications)
        self.n_linears = nl
        self.lo = lo = array("q", model.var_lo)
        self.hi = hi = array("q", model.var_hi)

        obj_coef = [0] * n_vars
        bound = model.objective_offset
        for idx, coef in index.obj_coef.items():
            obj_coef[idx] = coef
            bound += coef * (lo[idx] if coef > 0 else hi[idx])
        self.obj_coef = obj_coef
        self.lower_bound = bound
        obj_mask = 0
        for idx in index.obj_vars:
            obj_mask |= 1 << idx
        self.obj_mask = obj_mask
        self.entries: List[Tuple[int, int, int]] = []

        # Linears in one pass over their terms: per-variable membership,
        # the resident sums, and the packed watcher bitsets (bit c = linear
        # c, bit nl + j = implication j).  All-unit-coefficient constraints
        # (every OPG sum) take a divide-free fast path over a flat index
        # tuple in ``con_unit``; mixed coefficients fall back to
        # ``con_terms``.
        self.con_lo = array("q", model.lin_lo)
        self.con_hi = array("q", model.lin_hi)
        self.con_terms: Sequence[Tuple[Tuple[int, int], ...]] = lin_terms
        var_cids: List[list] = [[] for _ in range(n_vars)]
        mixed = set()
        hi_masks = [0] * n_vars
        csum_lo = array("q", bytes(8 * nl))
        csum_hi = array("q", bytes(8 * nl))
        con_unit: List[Optional[Tuple[int, ...]]] = []
        for cid, terms in enumerate(lin_terms):
            bit = 1 << cid
            s_lo = s_hi = 0
            unit = True
            for idx, coef in terms:
                var_cids[idx].append(cid)
                hi_masks[idx] |= bit
                if coef == 1:
                    s_lo += lo[idx]
                    s_hi += hi[idx]
                else:
                    unit = False
                    mixed.add(idx)
                    s_lo += coef * lo[idx]
                    s_hi += coef * hi[idx]
            csum_lo[cid] = s_lo
            csum_hi[cid] = s_hi
            con_unit.append(tuple([idx for idx, _ in terms]) if unit else None)
        self.csum_lo = csum_lo
        self.csum_hi = csum_hi
        self.con_unit = con_unit
        # Unit-coefficient membership (every OPG variable): the resident-sum
        # maintenance in set_lo/set_hi/undo_to walks a flat cid list and
        # adds the raw delta — no unpack, no multiply.  A variable with some
        # coef != 1 has None there and its (cid, coef) pairs in ``var_lin``.
        self.var_lin = {
            idx: [(cid, coef) for cid in dict.fromkeys(var_cids[idx])
                  for v, coef in lin_terms[cid] if v == idx]
            for idx in mixed
        }
        for idx in mixed:
            var_cids[idx] = None
        self.var_lin_unit: List[Optional[list]] = var_cids

        # Bounds only ever tighten, so an implication can newly fire ONLY on
        # a lower-bound change (rule 1 when lo[cond] crosses cond_ge, rule 2
        # when lo[then] crosses then_ub — the hi sides of both guards can
        # only turn false).  Upper-bound changes therefore dirty just the
        # linears: the watch masks are per side, and set_hi ORs a strictly
        # smaller mask than set_lo.
        self.imps = imps = model.implications
        lo_masks = list(hi_masks)
        bit = 1 << nl
        for cond, _cond_ge, then, _then_ub in imps:
            lo_masks[cond] |= bit
            lo_masks[then] |= bit
            bit <<= 1
        self.watch_lo_mask = lo_masks
        self.watch_hi_mask = hi_masks
        self.var_bit = [1 << i for i in range(n_vars)]
        self.dirty = 0
        self._all_dirty = (1 << (nl + ni)) - 1
        un = 0
        for i in range(n_vars):
            if lo[i] < hi[i]:
                un |= 1 << i
        self.unassigned = un
        # Entry dedup epochs: the search bumps ``epoch`` once per node (in
        # ``undo_to``); within a node only the FIRST bound change per
        # (variable, side) needs a trail entry — it already holds the value
        # undo must restore — so cascades that tighten the same bound in
        # several steps log it once.
        self.epoch = 0
        self.lo_stamp = [-1] * n_vars
        self.hi_stamp = [-1] * n_vars

    # ------------------------------------------------------------ trail API
    def mark(self) -> int:
        """Trail position to ``undo_to`` later — valid only at a node boundary.

        A bound is logged once per epoch (its first change since the last
        ``undo_to``), so a mark is an undo point only if no bound moves
        between it and the next ``undo_to``: a later change to a bound the
        current node already moved logs nothing, and undoing to the mark
        would leave it in place.  The search marks after propagating a
        node and opens every child with ``undo_to(mark)``.
        """
        return len(self.entries)

    def set_lo(self, idx: int, value: int) -> None:
        old = self.lo[idx]
        if self.lo_stamp[idx] != self.epoch:
            self.lo_stamp[idx] = self.epoch
            self.entries.append((idx, 0, old))
        self.lo[idx] = value
        delta = value - old
        coef = self.obj_coef[idx]
        if coef > 0:
            self.lower_bound += coef * delta
        unit = self.var_lin_unit[idx]
        if unit is not None:
            csum_lo = self.csum_lo
            for cid in unit:
                csum_lo[cid] += delta
        else:
            for cid, c in self.var_lin[idx]:
                self.csum_lo[cid] += c * delta
        self.dirty |= self.watch_lo_mask[idx]
        if value >= self.hi[idx]:
            self.unassigned &= ~self.var_bit[idx]

    def set_hi(self, idx: int, value: int) -> None:
        old = self.hi[idx]
        if self.hi_stamp[idx] != self.epoch:
            self.hi_stamp[idx] = self.epoch
            self.entries.append((idx, 1, old))
        self.hi[idx] = value
        delta = value - old
        coef = self.obj_coef[idx]
        if coef < 0:
            self.lower_bound += coef * delta
        unit = self.var_lin_unit[idx]
        if unit is not None:
            csum_hi = self.csum_hi
            for cid in unit:
                csum_hi[cid] += delta
        else:
            for cid, c in self.var_lin[idx]:
                self.csum_hi[cid] += c * delta
        self.dirty |= self.watch_hi_mask[idx]
        if value <= self.lo[idx]:
            self.unassigned &= ~self.var_bit[idx]

    def undo_to(self, mark: int) -> None:
        # One undo per node pop: bump the dedup epoch so the next node's
        # bound changes get fresh trail entries.
        self.epoch += 1
        entries = self.entries
        lo, hi = self.lo, self.hi
        obj_coef = self.obj_coef
        csum_lo, csum_hi = self.csum_lo, self.csum_hi
        var_lin = self.var_lin
        var_lin_unit = self.var_lin_unit
        var_bit = self.var_bit
        un = self.unassigned
        bound = self.lower_bound
        while len(entries) > mark:
            idx, which, old = entries.pop()
            unit = var_lin_unit[idx]
            if which == 0:
                delta = old - lo[idx]
                lo[idx] = old
                coef = obj_coef[idx]
                if coef > 0:
                    bound += coef * delta
                if unit is not None:
                    for cid in unit:
                        csum_lo[cid] += delta
                else:
                    for cid, c in var_lin[idx]:
                        csum_lo[cid] += c * delta
            else:
                delta = old - hi[idx]
                hi[idx] = old
                coef = obj_coef[idx]
                if coef < 0:
                    bound += coef * delta
                if unit is not None:
                    for cid in unit:
                        csum_hi[cid] += delta
                else:
                    for cid, c in var_lin[idx]:
                        csum_hi[cid] += c * delta
            if lo[idx] < hi[idx]:
                un |= var_bit[idx]
            else:
                un &= ~var_bit[idx]
        self.lower_bound = bound
        self.unassigned = un

    # ------------------------------------------------------- propagator API
    def propagate_all(self, stats: PropagationStats) -> bool:
        """Root propagation: every constraint starts dirty."""
        self.dirty = self._all_dirty
        return self._drain(stats)

    def propagate_from(self, stats: PropagationStats) -> bool:
        """Drain the dirt accumulated by set_lo/set_hi since the last drain.

        Seeding is implicit: the trail operations that applied the branch
        already OR'd the branched variable's watcher mask into ``dirty``.
        """
        return self._drain(stats)

    def abandon(self) -> None:
        """Drop pending dirt (the search pruned before propagating)."""
        self.dirty = 0

    def _drain(self, stats: PropagationStats) -> bool:
        n_linears = self.n_linears
        prop_linear = self._prop_linear
        imps = self.imps
        lo, hi = self.lo, self.hi
        set_hi = self.set_hi
        imp_evals = 0
        tightenings = 0
        while True:
            bits = self.dirty
            if not bits:
                stats.implication_props += imp_evals
                stats.tightenings += tightenings
                return True
            low = bits & -bits
            cid = low.bit_length() - 1
            if cid < n_linears:
                ok = prop_linear(cid, stats)
                # Clear after processing: the linear is at its local
                # fixpoint, so self-dirt from its own tightenings is
                # dropped; dirt it put on OTHER constraints stays.
                self.dirty &= ~low
                if not ok:
                    self.dirty = 0
                    stats.implication_props += imp_evals
                    stats.tightenings += tightenings
                    return False
                continue
            # Implications inline: firing calls set_hi, which dirties only
            # linears (implications watch lower bounds), so an implication
            # can never re-dirty itself or another implication — clear
            # its bit up front.
            self.dirty = bits & ~low
            cond, cond_ge, then, then_ub = imps[cid - n_linears]
            imp_evals += 1
            # cond >= cond_ge guaranteed -> then <= then_ub
            if lo[cond] >= cond_ge and then_ub < hi[then]:
                set_hi(then, then_ub)
                tightenings += 1
                if lo[then] > then_ub:
                    self.dirty = 0
                    stats.implication_props += imp_evals
                    stats.tightenings += tightenings
                    return False
            # then must exceed then_ub -> cond must stay below cond_ge
            if lo[then] > then_ub and hi[cond] >= cond_ge:
                set_hi(cond, cond_ge - 1)
                tightenings += 1
                if lo[cond] >= cond_ge:
                    self.dirty = 0
                    stats.implication_props += imp_evals
                    stats.tightenings += tightenings
                    return False

    def _prop_linear(self, cid: int, stats: PropagationStats) -> bool:
        stats.linear_props += 1
        csum_lo, csum_hi = self.csum_lo, self.csum_hi
        con_lo = self.con_lo[cid]
        con_hi = self.con_hi[cid]
        s_lo = csum_lo[cid]
        s_hi = csum_hi[cid]
        # Entailment: the sum's whole range fits inside [con_lo, con_hi],
        # so no completion violates the constraint and nothing can tighten
        # (every term width is at most s_hi - s_lo <= both slacks).  This
        # O(1) exit swallows most capacity-sum re-evaluations without
        # touching the terms.
        if s_lo >= con_lo and s_hi <= con_hi:
            return True
        if s_lo > con_hi or s_hi < con_lo:
            return False
        unit = self.con_unit[cid]
        if unit is None:
            return self._prop_linear_general(cid, stats)
        lo, hi = self.lo, self.hi
        # Detection pass: a unit term can tighten iff its width exceeds a
        # slack, i.e. exceeds min(slack_hi, slack_lo).  One comparison per
        # term with no writes — most re-evaluations are already at
        # fixpoint and exit here without paying the hoisted setup below.
        slack_hi = con_hi - s_lo
        slack_lo = s_hi - con_lo
        m = slack_hi if slack_hi < slack_lo else slack_lo
        for idx in unit:
            if hi[idx] - lo[idx] > m:
                break
        else:
            return True
        # Divide-free hot path: every coefficient is 1 (all OPG sums), with
        # the trail operations inlined over hoisted locals — this loop is
        # the propagation kernel, and attribute traffic per tightening
        # would otherwise dominate it.  ``slack_hi``/``slack_lo`` are the
        # residual slacks — how far a variable may sit above its lower
        # bound (below its upper bound) without the sum leaving
        # [con_lo, con_hi].  They go stale within a pass, which only
        # under-tightens; the outer loop re-passes to the same fixpoint.
        epoch = self.epoch
        lo_stamp, hi_stamp = self.lo_stamp, self.hi_stamp
        entries_append = self.entries.append
        obj_coef = self.obj_coef
        var_lin_unit = self.var_lin_unit
        var_lin = self.var_lin
        watch_lo, watch_hi = self.watch_lo_mask, self.watch_hi_mask
        var_bit = self.var_bit
        bound = self.lower_bound
        un = self.unassigned
        pend = 0
        tight = 0
        ok = True
        while True:
            if s_lo > con_hi or s_hi < con_lo:
                ok = False
                break
            slack_hi = con_hi - s_lo
            slack_lo = s_hi - con_lo
            changed = False
            for idx in unit:
                l = lo[idx]
                h = hi[idx]
                width = h - l
                if width > slack_hi:
                    value = l + slack_hi  # inlined set_hi(idx, value)
                    if hi_stamp[idx] != epoch:
                        hi_stamp[idx] = epoch
                        entries_append((idx, 1, h))
                    hi[idx] = value
                    delta = value - h
                    coef = obj_coef[idx]
                    if coef < 0:
                        bound += coef * delta
                    vu = var_lin_unit[idx]
                    if vu is not None:
                        for c2 in vu:
                            csum_hi[c2] += delta
                    else:
                        for c2, cf in var_lin[idx]:
                            csum_hi[c2] += cf * delta
                    pend |= watch_hi[idx]
                    if value <= l:
                        un &= ~var_bit[idx]
                    h = value
                    width = slack_hi
                    tight += 1
                    changed = True
                if width > slack_lo:
                    value = h - slack_lo  # inlined set_lo(idx, value)
                    if lo_stamp[idx] != epoch:
                        lo_stamp[idx] = epoch
                        entries_append((idx, 0, l))
                    lo[idx] = value
                    delta = value - l
                    coef = obj_coef[idx]
                    if coef > 0:
                        bound += coef * delta
                    vu = var_lin_unit[idx]
                    if vu is not None:
                        for c2 in vu:
                            csum_lo[c2] += delta
                    else:
                        for c2, cf in var_lin[idx]:
                            csum_lo[c2] += cf * delta
                    pend |= watch_lo[idx]
                    if value >= h:
                        un &= ~var_bit[idx]
                    tight += 1
                    changed = True
            if not changed:
                break
            s_lo = csum_lo[cid]
            s_hi = csum_hi[cid]
        self.lower_bound = bound
        self.unassigned = un
        self.dirty |= pend
        stats.tightenings += tight
        return ok

    def _prop_linear_general(self, cid: int, stats: PropagationStats) -> bool:
        """Mixed-coefficient fallback (no OPG constraint takes this path)."""
        lo, hi = self.lo, self.hi
        csum_lo, csum_hi = self.csum_lo, self.csum_hi
        con_lo = self.con_lo[cid]
        con_hi = self.con_hi[cid]
        set_lo, set_hi = self.set_lo, self.set_hi
        terms = self.con_terms[cid]
        tightenings = 0
        while True:
            s_lo = csum_lo[cid]
            s_hi = csum_hi[cid]
            if s_lo > con_hi or s_hi < con_lo:
                stats.tightenings += tightenings
                return False
            slack_hi = con_hi - s_lo
            slack_lo = s_hi - con_lo
            changed = False
            for idx, coef in terms:
                width = hi[idx] - lo[idx]
                if width == 0:
                    continue
                room = slack_hi if coef == 1 else slack_hi // coef
                if width > room:
                    set_hi(idx, lo[idx] + room)
                    width = room
                    tightenings += 1
                    changed = True
                room = slack_lo if coef == 1 else slack_lo // coef
                if width > room:
                    set_lo(idx, hi[idx] - room)
                    tightenings += 1
                    changed = True
            if not changed:
                stats.tightenings += tightenings
                return True

    # --------------------------------------------------------- search hooks
    def select_variable(self) -> Optional[int]:
        """Smallest-domain-first branching variable, or None when assigned.

        The choice of a full ascending scan — objective variables strictly
        first, then minimum width, lowest index on ties — but walking only
        the set bits of the unassigned bitset, with an early exit at width
        1 (no unassigned variable can be narrower, and ascending bit order
        makes the first hit the lowest-index tie-winner).
        """
        cand = self.unassigned & self.obj_mask
        if not cand:
            cand = self.unassigned
            if not cand:
                return None
        lo, hi = self.lo, self.hi
        best_idx = -1
        best_width = 1 << 62
        while cand:
            low = cand & -cand
            idx = low.bit_length() - 1
            cand ^= low
            width = hi[idx] - lo[idx]
            if width < best_width:
                best_width = width
                best_idx = idx
                if width == 1:
                    break
        return best_idx

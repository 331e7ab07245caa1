"""Gradient-boosted regression trees on numpy (XGBoost substitute).

The paper trains an XGBoost regressor to predict kernel latency under
varying additional loads (§4.2, Figure 4).  XGBoost is not available
offline, so this module implements the same model family from scratch:
squared-error gradient boosting with shrinkage, subsampling, and depth
control, over LightGBM-style histogram splits.  Features are pre-binned
**once per fit** into small integer codes; each tree level accumulates
per-node (count, Σy) histograms with a single flattened ``bincount`` over
all nodes × features, derives the larger sibling of every split by the
parent−child subtraction trick, and picks the best split per node from
cumulative sums — no Python loop over split points.  Bin boundaries are
midpoints between distinct feature values (all of them when a feature has
≤ ``max_bins`` distinct values, so small features split exactly;
quantile-spaced otherwise).

A fitted tree is a :class:`FlatTree` — parallel (feature, threshold, left,
right, value) arrays — and whole matrices are predicted by iterative
vectorized descent.  Boosting's per-stage full-X re-predict runs in code
space (``predict_binned``), which lands every row in the same leaf as the
real-threshold descent: with codes from ``searchsorted(B, x, "left")``,
``code ≤ t  ⇔  x ≤ B[t]``.  ``tests/capacity`` holds the descent bitwise to
a per-row node walk, and the fit quality to exact greedy CART splits
(both references live in ``tests/oracles/capacity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


class FlatTree:
    """A fitted regression tree compiled to parallel arrays.

    ``feature[i] < 0`` marks node ``i`` as a leaf; internal nodes route a
    row to ``left[i]`` when ``row[feature[i]] <= threshold[i]``, else to
    ``right[i]``.  ``bin_threshold`` carries the same splits as integer bin
    codes of the :class:`_BinnedMatrix` the tree was grown on, enabling the
    code-space descent used by boosting's per-stage training-set re-predict.
    """

    def __init__(self, feature, threshold, left, right, value, bin_threshold) -> None:
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.bin_threshold = np.asarray(bin_threshold, dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def _descend(self, M: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Route every row of ``M`` to its leaf; returns the leaf values."""
        idx = np.zeros(len(M), dtype=np.int64)
        if not len(M) or self.feature[0] < 0:
            return self.value[idx]
        rows = np.arange(len(M))
        while len(rows):
            node = idx[rows]
            f = self.feature[node]
            go_left = M[rows, f] <= thresholds[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            idx[rows] = nxt
            rows = rows[self.feature[nxt] >= 0]
        return self.value[idx]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized descent over real-valued features."""
        return self._descend(np.asarray(X, dtype=float), self.threshold)

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Descent in bin-code space.

        Identical leaf assignment to :meth:`predict` on the matrix the codes
        were binned from: ``code ≤ t ⇔ x ≤ boundary[t]``.
        """
        return self._descend(codes, self.bin_threshold)


# --------------------------------------------------------------- histograms
def _bin_boundaries(col: np.ndarray, max_bins: int) -> np.ndarray:
    """Split-candidate boundaries for one feature column.

    With ≤ ``max_bins`` distinct values the boundaries are *all* midpoints
    between consecutive distinct values — exact CART's candidate set, so
    small features lose nothing to binning.  Otherwise boundaries sit at
    sample quantiles (density-aware), snapped to midpoints between the two
    distinct values they fall between so every boundary separates data.
    """
    u = np.unique(col)
    if len(u) <= 1:
        return np.empty(0)
    if len(u) <= max_bins:
        return (u[:-1] + u[1:]) / 2.0
    n = len(col)
    xs = np.sort(col, kind="stable")
    qpos = (np.arange(1, max_bins) * n) // max_bins
    j = np.searchsorted(u, xs[qpos], side="left")
    j = j[j >= 1]
    return np.unique((u[j - 1] + u[j]) / 2.0)


class _BinnedMatrix:
    """A feature matrix pre-binned to small integer codes, once per fit.

    ``codes[i, f] = searchsorted(boundaries[f], X[i, f], side="left")``, so
    for any boundary index ``t``: ``codes[i, f] <= t  ⇔  X[i, f] <=
    boundaries[f][t]`` — code-space descent is exactly real-threshold
    descent on the binned matrix.
    """

    def __init__(self, X: np.ndarray, max_bins: int) -> None:
        n, d = X.shape
        self.boundaries: List[np.ndarray] = []
        codes = np.empty((n, d), dtype=np.int64)
        for f in range(d):
            b = _bin_boundaries(X[:, f], max_bins)
            self.boundaries.append(b)
            codes[:, f] = np.searchsorted(b, X[:, f], side="left")
        self.codes = codes
        #: Variable-width histogram layout: feature ``f`` owns the absolute
        #: bin range ``[offsets[f], offsets[f] + n_bins[f])``, so features
        #: with two distinct values cost two histogram slots, not
        #: ``max_bins`` — the flattened keyspace is Σ bins, not d·max_bins.
        self.n_bins = np.array([len(b) + 1 for b in self.boundaries], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.n_bins)[:-1]))
        self.total_bins = int(self.n_bins.sum())
        #: Codes with the per-feature offset pre-added — the grower's
        #: flattened-bincount keys need only the node-slot offset on top.
        self.codes_off = codes + self.offsets


def _grow_hist_tree(
    codes_off: np.ndarray,
    y: np.ndarray,
    binned: "_BinnedMatrix",
    *,
    max_depth: int,
    min_samples_leaf: int,
    min_gain: float = 1e-12,
) -> FlatTree:
    """Level-wise histogram tree growth, vectorized across nodes × features.

    Each level runs one flattened ``bincount`` over the rows that landed in
    this level's *smaller* children (keys ``slot·Σbins + offset[f] + code``,
    with the feature offset pre-baked into ``codes_off``); the larger
    sibling's histograms come from the parent−child subtraction trick.
    Best splits per node fall out of cumulative sums of the (count, Σy)
    histograms — maximizing the squared-error gain ``sse_node − (sse_l +
    sse_r)`` is maximizing ``sl²/nl + sr²/nr`` (the Σy² terms cancel), so
    no y² histogram is needed and no Python loop touches split points.
    """
    n, d = codes_off.shape
    y = np.asarray(y, dtype=np.float64)
    boundaries = binned.boundaries
    offsets = binned.offsets
    B = binned.total_bins
    #: feature owning each absolute bin, for decoding argmax winners
    seg = np.repeat(np.arange(d, dtype=np.int64), binned.n_bins)

    feat: List[int] = []
    thr: List[float] = []
    bint: List[int] = []
    left: List[int] = []
    right: List[int] = []
    value: List[float] = []

    def new_node(mean: float) -> int:
        feat.append(-1)
        thr.append(0.0)
        bint.append(-1)
        left.append(-1)
        right.append(-1)
        value.append(float(mean))
        return len(feat) - 1

    def hists(rows: np.ndarray, slot_of_row: np.ndarray, n_slots: int):
        size = n_slots * B
        keys = (slot_of_row[:, None] * B + codes_off[rows]).ravel()
        cnt = np.bincount(keys, minlength=size).reshape(n_slots, B)
        s = np.bincount(keys, weights=np.repeat(y[rows], d), minlength=size).reshape(n_slots, B)
        return cnt, s

    new_node(y.mean() if n else 0.0)
    if n < 2 * min_samples_leaf:
        return FlatTree(feat, thr, left, right, value, bint)

    active_rows = np.arange(n)
    row_slot = np.zeros(n, dtype=np.int64)
    level_ids = np.array([0], dtype=np.int64)
    hc, hs = hists(active_rows, row_slot, 1)

    for _depth in range(max_depth):
        n_slots = len(level_ids)
        # Global cumsum crosses feature borders; per-feature prefix sums are
        # recovered by subtracting each feature's segment base.
        cum_c = np.cumsum(hc, axis=1)
        cum_s = np.cumsum(hs, axis=1)
        base_c = np.zeros((n_slots, d))
        base_s = np.zeros((n_slots, d))
        base_c[:, 1:] = cum_c[:, offsets[1:] - 1]
        base_s[:, 1:] = cum_s[:, offsets[1:] - 1]
        nl = cum_c - base_c[:, seg]
        sl = cum_s - base_s[:, seg]
        tot_c = nl[:, offsets[0] + binned.n_bins[0] - 1]
        tot_s = sl[:, offsets[0] + binned.n_bins[0] - 1]
        nr = tot_c[:, None] - nl
        valid = (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
        sr = tot_s[:, None] - sl
        with np.errstate(divide="ignore", invalid="ignore"):
            score = sl * sl / nl + sr * sr / nr
        # gain = score − tot_s²/tot_c (per node); -inf disqualifies a bin.
        gain = np.where(valid, score, -np.inf)
        gain -= (tot_s * tot_s / np.maximum(tot_c, 1))[:, None]
        best = np.argmax(gain, axis=1)
        best_gain = gain[np.arange(n_slots), best]
        best_f = seg[best]
        best_t = best - offsets[best_f]
        do_split = (best_gain > min_gain) & (tot_c >= 2 * min_samples_leaf)
        if not do_split.any():
            break

        split_slots = np.nonzero(do_split)[0]
        k = len(split_slots)
        sf = best_f[split_slots]
        st = best_t[split_slots]
        sb = best[split_slots]
        nl_k = nl[split_slots, sb]
        sl_k = sl[split_slots, sb]
        nr_k = tot_c[split_slots] - nl_k
        sr_k = tot_s[split_slots] - sl_k
        lids = np.empty(k, dtype=np.int64)
        rids = np.empty(k, dtype=np.int64)
        for i in range(k):
            nid = int(level_ids[split_slots[i]])
            f = int(sf[i])
            t = int(st[i])
            feat[nid] = f
            bint[nid] = t
            thr[nid] = float(boundaries[f][t])
            lids[i] = new_node(sl_k[i] / nl_k[i])
            rids[i] = new_node(sr_k[i] / nr_k[i])
            left[nid] = int(lids[i])
            right[nid] = int(rids[i])

        # Route this level's rows: rows in non-splitting slots settle into
        # their (already-final) leaves and drop out of the active set.  The
        # offset codes compare against the absolute winning bin directly.
        slot_map = np.full(n_slots, -1, dtype=np.int64)
        slot_map[split_slots] = np.arange(k)
        pos = slot_map[row_slot]
        keep = pos >= 0
        active_rows = active_rows[keep]
        pos = pos[keep]
        go_left = codes_off[active_rows, sf[pos]] <= sb[pos]
        row_slot = np.where(go_left, 2 * pos, 2 * pos + 1)

        # Child histograms: one flattened bincount over the smaller children
        # only; every larger sibling is parent − smaller.
        n_next = 2 * k
        arange_k = np.arange(k)
        small_is_left = nl_k <= nr_k
        small_slot = np.where(small_is_left, 2 * arange_k, 2 * arange_k + 1)
        big_slot = np.where(small_is_left, 2 * arange_k + 1, 2 * arange_k)
        in_small = np.zeros(n_next, dtype=bool)
        in_small[small_slot] = True
        sel = in_small[row_slot]
        parent_c, parent_s = hc[split_slots], hs[split_slots]
        hc, hs = hists(active_rows[sel], row_slot[sel], n_next)
        hc[big_slot] = parent_c - hc[small_slot]
        hs[big_slot] = parent_s - hs[small_slot]
        level_ids = np.empty(n_next, dtype=np.int64)
        level_ids[2 * arange_k] = lids
        level_ids[2 * arange_k + 1] = rids
    return FlatTree(feat, thr, left, right, value, bint)


# ----------------------------------------------------------------- boosting
@dataclass
class GBTConfig:
    """Hyperparameters of the boosted ensemble."""

    n_estimators: int = 120
    learning_rate: float = 0.1
    max_depth: int = 4
    min_samples_leaf: int = 4
    subsample: float = 0.9
    seed: int = 0
    #: Maximum histogram bins per feature.
    max_bins: int = 256

    def __post_init__(self) -> None:
        if self.max_bins < 2:
            raise ValueError("max_bins must be >= 2")


class GradientBoostedTrees:
    """Squared-error gradient boosting: F_{m}(x) = F_{m-1}(x) + lr * tree_m(x).

    With squared error the negative gradient is the residual, so each stage
    fits a regression tree to the current residuals — functionally the same
    core as XGBoost's default regressor (without second-order terms).
    Stages are :class:`FlatTree` objects, so ``predict``/``score_rmse`` run
    columnar over whole matrices; the per-stage training-set re-predict
    runs in pre-binned code space (identical leaf assignment, see
    :class:`_BinnedMatrix`).
    """

    def __init__(self, config: Optional[GBTConfig] = None) -> None:
        self.config = config or GBTConfig()
        self._trees: List[FlatTree] = []
        self._base: float = 0.0
        self.train_rmse_: Optional[float] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty with matching length")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._base = float(y.mean())
        pred = np.full(len(y), self._base)
        self._trees = []
        n = len(y)
        sample = max(cfg.min_samples_leaf * 2, int(n * cfg.subsample))
        binned = _BinnedMatrix(X, cfg.max_bins)
        for _ in range(cfg.n_estimators):
            residual = y - pred
            if sample < n:
                idx = rng.choice(n, size=sample, replace=False)
            else:
                idx = np.arange(n)
            tree = _grow_hist_tree(
                binned.codes_off[idx],
                residual[idx],
                binned,
                max_depth=cfg.max_depth,
                min_samples_leaf=cfg.min_samples_leaf,
            )
            pred = pred + cfg.learning_rate * tree.predict_binned(binned.codes)
            self._trees.append(tree)
        self.train_rmse_ = float(np.sqrt(((y - pred) ** 2).mean()))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Columnar ensemble prediction (vectorized descent per stage)."""
        if not self._trees:
            raise RuntimeError("model not fitted")
        X = np.asarray(X, dtype=float)
        pred = np.full(len(X), self._base)
        for tree in self._trees:
            pred = pred + self.config.learning_rate * tree.predict(X)
        return pred

    def score_rmse(self, X: np.ndarray, y: np.ndarray) -> float:
        """Root-mean-squared error on a held-out set."""
        return float(np.sqrt(((self.predict(X) - np.asarray(y, dtype=float)) ** 2).mean()))

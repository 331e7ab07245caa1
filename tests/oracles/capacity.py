"""Capacity oracles: exact CART splits, per-row node walks, sequential bisection.

The capacity pipeline's fast paths are checked against these:

- :class:`RegressionTree` — the seed's exact greedy CART splitter.
  :func:`fit_exact` is :meth:`GradientBoostedTrees.fit` with it in place of
  the histogram grower; swapped in for ``GradientBoostedTrees.fit`` it
  trains the exact-split regime the histogram fit must stay close to.
- :func:`tree_nodewalk` / :func:`ensemble_nodewalk` — the seed's per-row
  node walk.  The columnar ``FlatTree.predict`` and
  ``GradientBoostedTrees.predict`` must equal them bitwise.
- :func:`capacity_bytes_oracle` — one scalar 40-step bisection per op with
  a fresh single-row node-walk predict per step, no memo, no batching.
  ``LoadCapacityModel.capacity_bytes_batch`` must return the same ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.capacity.classify import threshold_for
from repro.capacity.features import featurize
from repro.capacity.gbt import FlatTree, GradientBoostedTrees
from repro.fusion.fuser import fused_members, is_fused


@dataclass
class _TreeNode:
    """One node of a regression tree (leaf when ``feature`` is None)."""

    value: float = 0.0
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class RegressionTree:
    """CART regression tree with exact greedy splits on squared error.

    ``flatten()`` compiles it to a :class:`FlatTree` for columnar inference.
    """

    def __init__(self, *, max_depth: int = 4, min_samples_leaf: int = 4, min_gain: float = 1e-12) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self._root: Optional[_TreeNode] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError("X must be (n, d) and y (n,) with matching n")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self._root = self._build(X, y, depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> Optional[Tuple[int, float]]:
        n, d = X.shape
        base_sse = float(((y - y.mean()) ** 2).sum())
        best_gain = self.min_gain
        best: Optional[Tuple[int, float]] = None
        for f in range(d):
            order = np.argsort(X[:, f], kind="stable")
            xs, ys = X[order, f], y[order]
            # Prefix sums let us evaluate every split in O(n).
            csum = np.cumsum(ys)
            csq = np.cumsum(ys**2)
            total_sum, total_sq = csum[-1], csq[-1]
            for i in range(self.min_samples_leaf - 1, n - self.min_samples_leaf):
                if xs[i] == xs[i + 1]:
                    continue  # cannot split between equal feature values
                nl = i + 1
                nr = n - nl
                sl, sql = csum[i], csq[i]
                sr, sqr = total_sum - sl, total_sq - sql
                sse = (sql - sl * sl / nl) + (sqr - sr * sr / nr)
                gain = base_sse - sse
                if gain > best_gain:
                    best_gain = gain
                    best = (f, float((xs[i] + xs[i + 1]) / 2.0))
        return best

    def flatten(self) -> FlatTree:
        """Compile the fitted node chain into parallel arrays.

        Exact splits carry no bin codes; only ``FlatTree.predict`` reads the
        result, so every ``bin_threshold`` is -1.
        """
        if self._root is None:
            raise RuntimeError("tree not fitted")
        feat: List[int] = []
        thr: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[float] = []

        def add(node: _TreeNode) -> int:
            i = len(feat)
            feat.append(-1)
            thr.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(node.value)
            if not node.is_leaf:
                feat[i] = int(node.feature)
                thr[i] = node.threshold
                left[i] = add(node.left)
                right[i] = add(node.right)
            return i

        add(self._root)
        return FlatTree(feat, thr, left, right, value, [-1] * len(feat))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree not fitted")
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


def fit_exact(model: GradientBoostedTrees, X: np.ndarray, y: np.ndarray) -> GradientBoostedTrees:
    """:meth:`GradientBoostedTrees.fit` growing exact-split trees.

    The same boosting loop (same subsample draws, same shrinkage) with a
    :class:`RegressionTree` per stage, re-predicted over real thresholds.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) != len(y) or len(X) == 0:
        raise ValueError("X and y must be non-empty with matching length")
    cfg = model.config
    rng = np.random.default_rng(cfg.seed)
    model._base = float(y.mean())
    pred = np.full(len(y), model._base)
    model._trees = []
    n = len(y)
    sample = max(cfg.min_samples_leaf * 2, int(n * cfg.subsample))
    for _ in range(cfg.n_estimators):
        residual = y - pred
        idx = rng.choice(n, size=sample, replace=False) if sample < n else np.arange(n)
        tree = RegressionTree(
            max_depth=cfg.max_depth, min_samples_leaf=cfg.min_samples_leaf
        ).fit(X[idx], residual[idx]).flatten()
        pred = pred + cfg.learning_rate * tree.predict(X)
        model._trees.append(tree)
    model.train_rmse_ = float(np.sqrt(((y - pred) ** 2).mean()))
    return model


def tree_nodewalk(tree: FlatTree, X: np.ndarray) -> np.ndarray:
    """Per-row node walk over a :class:`FlatTree` — the seed predict path."""
    X = np.asarray(X, dtype=float)
    out = np.empty(len(X))
    for i, row in enumerate(X):
        j = 0
        while tree.feature[j] >= 0:
            j = tree.left[j] if row[tree.feature[j]] <= tree.threshold[j] else tree.right[j]
        out[i] = tree.value[j]
    return out


def ensemble_nodewalk(model: GradientBoostedTrees, X: np.ndarray) -> np.ndarray:
    """Per-row node-walk prediction of a fitted ensemble, stage by stage."""
    if not model._trees:
        raise RuntimeError("model not fitted")
    X = np.asarray(X, dtype=float)
    pred = np.full(len(X), model._base)
    for tree in model._trees:
        pred = pred + model.config.learning_rate * tree_nodewalk(tree, X)
    return pred


def predict_latency_ms_oracle(model, op, extra_bytes: int = 0, *, predict=ensemble_nodewalk) -> float:
    """Latency of ``op`` with ``extra_bytes`` embedded as ``model`` predicts
    it: one single-row ``predict(regressor, X)`` (analytic: the cost model)."""
    if model.backend == "analytic":
        return model.cost.time_with_load_ms(op, extra_bytes)
    log_latency = predict(model.regressor, featurize(op, extra_bytes).reshape(1, -1))[0]
    return float(10**log_latency)


def capacity_bytes_oracle(model, op, *, predict=ensemble_nodewalk) -> int:
    """Sequential load capacity of ``op`` under ``model`` (bytes).

    Fused ops take the minimum over their members; the ``gbt`` backend
    bisects 40 steps over ``predict``'s latencies.
    """
    if is_fused(op):
        return min(capacity_bytes_oracle(model, m, predict=predict) for m in fused_members(op))
    threshold = threshold_for(op)
    if threshold <= 0.0:
        return 0
    if model.backend == "analytic":
        return model.cost.load_capacity_bytes(op, threshold)
    limit = predict_latency_ms_oracle(model, op, 0, predict=predict) * (1.0 + threshold)
    lo, hi = 0, max(op.input_bytes * 16, 1 << 20)
    if predict_latency_ms_oracle(model, op, hi, predict=predict) <= limit:
        return hi
    for _ in range(40):
        mid = (lo + hi) // 2
        if predict_latency_ms_oracle(model, op, mid, predict=predict) <= limit:
            lo = mid
        else:
            hi = mid
    return lo

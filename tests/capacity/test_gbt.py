"""Tests for the gradient-boosted-trees regressor (XGBoost substitute), and
for the exact-split reference tree it is checked against."""

import numpy as np
import pytest

from repro.capacity.gbt import GBTConfig, GradientBoostedTrees
from tests.oracles import RegressionTree


def _make_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + X[:, 2]
    return X, y


class TestRegressionTree:
    def test_fits_constant(self):
        X = np.zeros((10, 2))
        y = np.full(10, 3.0)
        tree = RegressionTree().fit(X, y)
        assert np.allclose(tree.predict(X), 3.0)

    def test_splits_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2).fit(X, y)
        pred = tree.predict(X)
        assert abs(pred[0]) < 0.05
        assert abs(pred[-1] - 1.0) < 0.05

    def test_depth_limits_complexity(self):
        X, y = _make_data()
        shallow = RegressionTree(max_depth=1).fit(X, y)
        deep = RegressionTree(max_depth=6).fit(X, y)
        sse = lambda t: float(((t.predict(X) - y) ** 2).sum())
        assert sse(deep) < sse(shallow)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((4, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_min_samples_leaf_respected(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        y = np.array([0, 0, 0, 1, 1, 1], dtype=float)
        tree = RegressionTree(max_depth=8, min_samples_leaf=3).fit(X, y)
        # Only one split possible with 3-sample leaves.
        assert len(set(tree.predict(X))) <= 2


class TestGradientBoosting:
    def test_improves_over_mean_baseline(self):
        X, y = _make_data()
        model = GradientBoostedTrees(GBTConfig(n_estimators=60)).fit(X, y)
        baseline_rmse = float(np.sqrt(((y - y.mean()) ** 2).mean()))
        assert model.score_rmse(X, y) < baseline_rmse / 3

    def test_generalizes(self):
        X, y = _make_data(600, seed=1)
        Xt, yt = _make_data(200, seed=2)
        model = GradientBoostedTrees(GBTConfig(n_estimators=80)).fit(X, y)
        assert model.score_rmse(Xt, yt) < 0.25

    def test_more_trees_fit_better(self):
        X, y = _make_data()
        few = GradientBoostedTrees(GBTConfig(n_estimators=5)).fit(X, y)
        many = GradientBoostedTrees(GBTConfig(n_estimators=100)).fit(X, y)
        assert many.train_rmse_ < few.train_rmse_

    def test_deterministic_given_seed(self):
        X, y = _make_data()
        a = GradientBoostedTrees(GBTConfig(seed=42)).fit(X, y).predict(X[:10])
        b = GradientBoostedTrees(GBTConfig(seed=42)).fit(X, y).predict(X[:10])
        assert np.array_equal(a, b)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros((0, 2)), np.zeros(0))

    def test_subsample_still_learns(self):
        X, y = _make_data()
        model = GradientBoostedTrees(GBTConfig(n_estimators=80, subsample=0.5)).fit(X, y)
        assert model.score_rmse(X, y) < 0.3

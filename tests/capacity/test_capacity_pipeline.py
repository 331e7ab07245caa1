"""Differential suite for the vectorized capacity pipeline.

Pins the equivalence guarantees the LightGBM-style rewrite rests on,
against the references in ``tests/oracles/capacity.py``:

- flattened batched tree inference is *bitwise* identical to the per-row
  node walk (for exact-split and histogram-split trees alike);
- histogram-binned training stays within a holdout-RMSE tolerance of the
  exact-split regime (``fit_exact``) on fig4-style profile data;
- ``capacity_bytes_batch`` (lockstep bisection + memo) returns exactly the
  sequential ``capacity_bytes_oracle`` values for both backends, across
  models x devices, fused ops included;
- a store-cached regressor reloads to bit-identical predictions
  (hypothesis round-trip).
"""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity.gbt import FlatTree, GBTConfig, GradientBoostedTrees
from repro.capacity.model import LoadCapacityModel, analytic_capacity_model
from repro.capacity.profiler import LoadCapacityProfiler
from repro.core.store import ArtifactStore, swap_store
from repro.fusion.fuser import fuse_graph
from repro.graph.models import load_model
from repro.gpusim.device import get_device
from tests.oracles import (
    RegressionTree,
    capacity_bytes_oracle,
    ensemble_nodewalk,
    fit_exact,
    tree_nodewalk,
)

#: The two ways to grow an ensemble: the production histogram fit and the
#: exact-split reference.
FITS = {"exact": fit_exact, "hist": GradientBoostedTrees.fit}


def _dataset(n, d, seed, *, discrete_cols=()):
    """Random regression data; ``discrete_cols`` get few distinct values so
    threshold ties (the bitwise-risky case) actually occur."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    for c in discrete_cols:
        X[:, c] = rng.integers(0, 4, size=n).astype(float)
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(scale=0.1, size=n)
    return X, y


class TestFlatPredictBitwise:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exact_tree_flatten_matches_per_row(self, seed):
        X, y = _dataset(250, 5, seed, discrete_cols=(2, 4))
        tree = RegressionTree(max_depth=5).fit(X, y)
        flat = tree.flatten()
        Xq, _ = _dataset(180, 5, seed + 100, discrete_cols=(2, 4))
        assert isinstance(flat, FlatTree)
        assert np.array_equal(flat.predict(Xq), tree.predict(Xq))
        assert np.array_equal(flat.predict(Xq), tree_nodewalk(flat, Xq))

    @pytest.mark.parametrize("regime", ["exact", "hist"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_ensemble_predict_matches_nodewalk(self, regime, seed):
        X, y = _dataset(300, 6, seed, discrete_cols=(3,))
        model = GradientBoostedTrees(GBTConfig(n_estimators=40, seed=seed))
        FITS[regime](model, X, y)
        Xq, _ = _dataset(200, 6, seed + 50, discrete_cols=(3,))
        assert np.array_equal(model.predict(Xq), ensemble_nodewalk(model, Xq))

    def test_score_rmse_columnar_matches_nodewalk(self):
        X, y = _dataset(200, 4, 11)
        model = GradientBoostedTrees(GBTConfig(n_estimators=25)).fit(X, y)
        walk = float(np.sqrt(((ensemble_nodewalk(model, X) - y) ** 2).mean()))
        assert model.score_rmse(X, y) == walk


class TestHistVsExactAccuracy:
    def test_hist_within_holdout_tolerance_on_profile_data(self, monkeypatch):
        device = get_device("OnePlus 12")
        profiler = LoadCapacityProfiler(device, seed=0)
        dataset = profiler.profile_models(
            [load_model("GPTN-S"), load_model("ViT")], max_ops_per_model=24
        )
        hist = LoadCapacityModel.from_dataset(device, dataset)
        with monkeypatch.context() as patch:
            patch.setattr(GradientBoostedTrees, "fit", fit_exact)
            exact = LoadCapacityModel.from_dataset(device, dataset)
        assert exact.report is not None and hist.report is not None
        # Binned splits may differ slightly from exact splits, but the fit
        # quality must stay in the same regime (fig4 holdout ~0.02-0.03).
        assert hist.report.holdout_rmse_log10 <= (
            exact.report.holdout_rmse_log10 * 1.3 + 0.005
        )


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("device_name", ["OnePlus 12", "Pixel 8"])
    @pytest.mark.parametrize("model_name", ["GPTN-S", "ViT"])
    def test_analytic_backend(self, device_name, model_name):
        model = analytic_capacity_model(get_device(device_name))
        ops = [n.spec for n in fuse_graph(load_model(model_name)).nodes()]
        batch = model.capacity_bytes_batch(ops)
        assert batch == [capacity_bytes_oracle(model, op) for op in ops]
        assert all(type(v) is int for v in batch)

    @pytest.mark.parametrize("device_name", ["OnePlus 12", "Pixel 8"])
    def test_gbt_backend(self, device_name):
        device = get_device(device_name)
        graph = load_model("GPTN-S")
        model = LoadCapacityModel.train(device, [graph], seed=0, max_ops_per_model=12)
        ops = [n.spec for n in fuse_graph(graph).nodes()]
        batch = model.capacity_bytes_batch(ops)
        assert batch == [capacity_bytes_oracle(model, op) for op in ops]

    def test_gbt_lockstep_stops_at_convergence(self):
        """One lockstep call stops once every bisection has converged:
        at most the two set-up predicts plus ceil(log2(max hi0)) steps,
        with capacities still equal to the sequential 40-step oracle."""
        device = get_device("OnePlus 12")
        graph = load_model("GPTN-S")
        model = LoadCapacityModel.train(device, [graph], seed=0, max_ops_per_model=12)
        ops = [n.spec for n in fuse_graph(graph).nodes()]
        max_hi0 = max(max(n.spec.input_bytes * 16, 1 << 20) for n in graph.nodes())
        before = model.stats["batch_predicts"]
        batch = model.capacity_bytes_batch(ops)
        assert model.stats["bisections"] > 0
        assert model.stats["batch_predicts"] - before <= 2 + math.ceil(math.log2(max_hi0))
        assert batch == [capacity_bytes_oracle(model, op) for op in ops]

    def test_memo_hits_on_requery_and_scalar_path(self):
        model = analytic_capacity_model(get_device("OnePlus 12"))
        ops = [n.spec for n in fuse_graph(load_model("ViT")).nodes()]
        first = model.capacity_bytes_batch(ops)
        hits_before = model.stats["memo_hits"]
        second = model.capacity_bytes_batch(ops)
        assert second == first
        assert model.stats["memo_hits"] == hits_before + len(ops)
        # The scalar entry point rides the same memo.
        assert model.capacity_bytes(ops[0]) == first[0]

    def test_capacity_chunks_batch_matches_scalar(self):
        model = analytic_capacity_model(get_device("OnePlus 12"))
        ops = [n.spec for n in load_model("ViT").nodes()]
        chunk = 1 << 18
        assert model.capacity_chunks_batch(ops, chunk) == [
            model.capacity_chunks(op, chunk) for op in ops
        ]
        with pytest.raises(ValueError):
            model.capacity_chunks_batch(ops, 0)


class TestStoreCachedRegressor:
    @given(seed=st.integers(0, 2**16), n=st.integers(40, 120))
    @settings(max_examples=8, deadline=None)
    def test_reload_predictions_bit_identical(self, seed, n):
        X, y = _dataset(n, 4, seed)
        model = GradientBoostedTrees(GBTConfig(n_estimators=12, seed=seed)).fit(X, y)
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            key = {"kind": "capacity-model", "probe": int(seed)}
            store.save(key, {"regressor": model})
            loaded = store.load(key)["regressor"]
        Xq, _ = _dataset(60, 4, seed + 1)
        assert np.array_equal(model.predict(Xq), loaded.predict(Xq))
        assert np.array_equal(loaded.predict(Xq), ensemble_nodewalk(loaded, Xq))

    def test_trained_capacity_model_warm_reload_identical(self, tmp_path):
        from repro.capacity import cache as capacity_cache

        previous = swap_store(ArtifactStore(tmp_path))
        capacity_cache.clear_capacity_cache()
        try:
            trains_before = capacity_cache.STATS["trains"]
            kwargs = dict(models=("ViT",), max_ops_per_model=8)
            cold = capacity_cache.trained_capacity_model("OnePlus 12", **kwargs)
            capacity_cache.clear_capacity_cache()
            warm = capacity_cache.trained_capacity_model("OnePlus 12", **kwargs)
            assert capacity_cache.STATS["trains"] == trains_before + 1
            assert warm.report == cold.report
            ops = [n.spec for n in load_model("ViT").nodes()]
            assert warm.capacity_bytes_batch(ops) == cold.capacity_bytes_batch(ops)
        finally:
            swap_store(previous)
            capacity_cache.clear_capacity_cache()

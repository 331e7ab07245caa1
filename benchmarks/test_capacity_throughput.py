"""Bench: the vectorized capacity pipeline vs the pre-PR sequential path.

Written to ``results/BENCH_capacity.json`` so future PRs can track the
trajectory:

- **fit_ab** — GBT training on the fig4-scale profile dataset (full model
  zoo, 24 ops/model, 8 load ratios): histogram-binned level-wise growth
  with flattened columnar stage predicts vs the seed's exact greedy
  splitter with per-row node-walk predicts.
- **query_ab** — whole-graph capacity queries on GPTN-2.7B (largest op
  count in the zoo): one ``capacity_bytes_batch`` lockstep bisection vs
  the pre-PR per-op sequential bisect (one single-row node-walk predict
  per (op, step)).
- **compile_ab** — end-to-end ``gbt``-backend GPTN-S compile: profile +
  histogram fit + batched capacity queries + LC-OPG, against the seed
  emulation (exact fit, sequential unmemoized capacity queries).
- **warm_reuse** — cold vs warm ``trained_capacity_model`` through a
  persistent ``ArtifactStore``; the warm rerun must retrain 0 regressors.

The pre-PR baseline classes (``SeedGBT``, ``SeedCapacityModel``) are
verbatim ports of the seed implementation: python-loop exact splits
(``tests/oracles``' ``RegressionTree``, the seed's tree), node-object
per-row predicts after every stage, and per-op sequential capacity
bisection with no memo and no batching.  Everything
else (profiler, cost model, fusion loop, solver) is shared, so each ratio
isolates this PR's capacity-path work.

Measurement methodology matches ``test_compile_latency``: each timed side
runs in a fresh subprocess, interleaved, minimum of N CPU-time samples
per side.
"""

import gc
import json
import tempfile
import time
from typing import List, Optional

import numpy as np

from conftest import RESULTS_DIR, ab_subprocess, emit_record

from repro.capacity.gbt import GBTConfig
from repro.capacity.model import LoadCapacityModel
from repro.gpusim.device import get_device
from repro.graph.models import load_model
from tests.oracles import RegressionTree, capacity_bytes_oracle

DEVICE = "OnePlus 12"
QUERY_MODEL = "GPTN-2.7B"
COMPILE_MODEL = "GPTN-S"

#: Samples per A/B side (interleaved V S V S ...; min is reported).
AB_SAMPLES = 2


def _profile_dataset(device):
    """The default ``gbt``-backend profile set (full zoo, fig4 scale)."""
    from repro.capacity.cache import DEFAULT_MAX_OPS_PER_MODEL, DEFAULT_PROFILE_MODELS
    from repro.capacity.profiler import LoadCapacityProfiler

    profiler = LoadCapacityProfiler(device, seed=0)
    return profiler.profile_models(
        [load_model(m) for m in DEFAULT_PROFILE_MODELS],
        max_ops_per_model=DEFAULT_MAX_OPS_PER_MODEL,
    )


# --------------------------------------------------------------------------
# Pre-PR baseline: the seed's exact-split / node-walk implementation.
# --------------------------------------------------------------------------


class SeedGBT:
    """Seed boosting loop: per-stage re-predict via per-row node walks."""

    def __init__(self, config: Optional[GBTConfig] = None):
        self.config = config or GBTConfig()
        self._trees: List[RegressionTree] = []
        self._base = 0.0
        self.train_rmse_: Optional[float] = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._base = float(y.mean())
        pred = np.full(len(y), self._base)
        self._trees = []
        n = len(y)
        sample = max(cfg.min_samples_leaf * 2, int(n * cfg.subsample))
        for _ in range(cfg.n_estimators):
            residual = y - pred
            idx = rng.choice(n, size=sample, replace=False) if sample < n else np.arange(n)
            tree = RegressionTree(
                max_depth=cfg.max_depth, min_samples_leaf=cfg.min_samples_leaf
            ).fit(X[idx], residual[idx])
            pred = pred + cfg.learning_rate * tree.predict(X)
            self._trees.append(tree)
        self.train_rmse_ = float(np.sqrt(((y - pred) ** 2).mean()))
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        pred = np.full(len(X), self._base)
        for tree in self._trees:
            pred = pred + self.config.learning_rate * tree.predict(X)
        return pred


class SeedCapacityModel(LoadCapacityModel):
    """Pre-PR capacity queries: per-op sequential bisection, no memo.  The
    seed's only predict *was* the node walk, so the bisection calls it."""

    def capacity_bytes(self, op):
        return capacity_bytes_oracle(self, op, predict=SeedGBT.predict)

    def capacity_bytes_batch(self, ops):
        return [self.capacity_bytes(op) for op in ops]

    def capacity_chunks(self, op, chunk_bytes):
        return self.capacity_bytes(op) // chunk_bytes

    def capacity_chunks_batch(self, ops, chunk_bytes):
        return [self.capacity_bytes(op) // chunk_bytes for op in ops]


# --------------------------------------------------------------------------
# Child-process measurement entries (see conftest.ab_subprocess).
# --------------------------------------------------------------------------


def _measure_fit(side: str) -> None:
    """Time one regressor fit on the fig4-scale dataset (profiling excluded)."""
    device = get_device(DEVICE)
    dataset = _profile_dataset(device)
    X, y = dataset.matrices()
    model = SeedGBT(GBTConfig()) if side == "seed" else None
    gc.collect()
    gc.disable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if side == "seed":
        model.fit(X, y)
    else:
        from repro.capacity.gbt import GradientBoostedTrees

        model = GradientBoostedTrees(GBTConfig()).fit(X, y)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    gc.enable()
    emit_record(
        {
            "side": side,
            "n_samples": int(len(y)),
            "wall_s": round(wall, 3),
            "cpu_s": round(cpu, 3),
            "train_rmse_log10": round(float(model.train_rmse_), 4),
        }
    )


def _measure_query(side: str) -> None:
    """Time whole-graph capacity queries on GPTN-2.7B (training excluded).

    Both sides query the same trained histogram model; the baseline side
    replays the pre-PR access pattern — one scalar bisection per op with a
    single-row node-walk predict per step.
    """
    from repro.fusion.fuser import fuse_graph

    device = get_device(DEVICE)
    graph = load_model(QUERY_MODEL)
    model = LoadCapacityModel.train(device, [graph], seed=0, max_ops_per_model=24)
    ops = [n.spec for n in fuse_graph(graph).nodes()]
    gc.collect()
    gc.disable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if side == "sequential":
        caps = [capacity_bytes_oracle(model, op) for op in ops]
    else:
        caps = model.capacity_bytes_batch(ops)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    gc.enable()
    record = {
        "side": side,
        "n_ops": len(ops),
        "wall_s": round(wall, 3),
        "cpu_s": round(cpu, 3),
        "capacity_mb_total": round(sum(caps) / 2**20, 1),
    }
    if side == "batch":
        record["stats"] = dict(model.stats)
    emit_record(record)


def _measure_compile(side: str) -> None:
    """Time the end-to-end gbt-backend compile: profile + fit + plan."""
    from repro.core.flashmem import FlashMem
    from repro.experiments.common import experiment_flashmem_config

    device = get_device(DEVICE)
    graph = load_model(COMPILE_MODEL)
    config = experiment_flashmem_config(capacity_backend="gbt")
    gc.collect()
    gc.disable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if side == "seed":
        dataset = _profile_dataset(device)
        train, holdout = dataset.split(holdout=0.2, seed=0)
        Xt, yt = train.matrices()
        capacity = SeedCapacityModel(
            device, backend="gbt", regressor=SeedGBT(GBTConfig(seed=0)).fit(Xt, yt)
        )
    else:
        from repro.capacity.cache import trained_capacity_model

        capacity = trained_capacity_model(device)
    compiled = FlashMem(config).compile(graph, device, capacity=capacity)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    gc.enable()
    emit_record(
        {
            "side": side,
            "wall_s": round(wall, 3),
            "cpu_s": round(cpu, 3),
            "status": compiled.plan.stats.solver_status,
            "capacity_queries": dict(capacity.stats),
        }
    )


def _measure_warm(phase: str, store_root: str) -> None:
    """Build the default capacity model through a persistent store."""
    from repro.capacity import cache as capacity_cache
    from repro.core.store import ArtifactStore, swap_store

    # This child's store serves only the capacity model, so its hits are
    # the capacity model's warm loads.
    store = ArtifactStore(store_root)
    swap_store(store)
    wall0 = time.perf_counter()
    model = capacity_cache.trained_capacity_model(DEVICE)
    emit_record(
        {
            "phase": phase,
            "wall_s": round(time.perf_counter() - wall0, 3),
            "trains": capacity_cache.STATS["trains"],
            "store_hits": store.stats.hits,
            "holdout_rmse_log10": round(model.report.holdout_rmse_log10, 4),
        }
    )


# --------------------------------------------------------------------------
# Aggregation.
# --------------------------------------------------------------------------


def _ab(func: str, new_side: str, old_side: str) -> dict:
    runs = {new_side: [], old_side: []}
    for _ in range(AB_SAMPLES):
        for side in (new_side, old_side):
            runs[side].append(
                ab_subprocess("test_capacity_throughput", func, side)
            )
    best_new = min(runs[new_side], key=lambda r: r["cpu_s"])
    best_old = min(runs[old_side], key=lambda r: r["cpu_s"])
    return {
        "samples_per_side": AB_SAMPLES,
        "pre_pr_s": best_old["cpu_s"],
        "vectorized_s": best_new["cpu_s"],
        "speedup": round(best_old["cpu_s"] / best_new["cpu_s"], 2),
        "wall": {
            "pre_pr_s": best_old["wall_s"],
            "vectorized_s": best_new["wall_s"],
            "speedup": round(best_old["wall_s"] / best_new["wall_s"], 2),
        },
        "records": {"pre_pr": best_old, "vectorized": best_new},
    }


def _warm_reuse() -> dict:
    with tempfile.TemporaryDirectory() as root:
        cold = ab_subprocess("test_capacity_throughput", "_measure_warm", "cold", root)
        warm = ab_subprocess("test_capacity_throughput", "_measure_warm", "warm", root)
    return {
        "device": DEVICE,
        "cold_s": cold["wall_s"],
        "warm_s": warm["wall_s"],
        "cold_trains": cold["trains"],
        "warm_trains": warm["trains"],
        "warm_store_hits": warm["store_hits"],
        "holdout_rmse_log10": warm["holdout_rmse_log10"],
    }


def _run_all():
    return {
        "fit_ab": _ab("_measure_fit", "hist", "seed"),
        "query_ab": {"model": QUERY_MODEL, **_ab("_measure_query", "batch", "sequential")},
        "compile_ab": {
            "model": COMPILE_MODEL,
            **_ab("_measure_compile", "vectorized", "seed"),
        },
        "warm_reuse": _warm_reuse(),
    }


def test_capacity_throughput(benchmark):
    result = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_capacity.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    fit, query, comp, warm = (
        result["fit_ab"],
        result["query_ab"],
        result["compile_ab"],
        result["warm_reuse"],
    )
    print(
        f"fit     {fit['records']['vectorized']['n_samples']} samples: "
        f"seed {fit['pre_pr_s']:.2f}s -> hist {fit['vectorized_s']:.2f}s "
        f"= {fit['speedup']:.1f}x"
    )
    print(
        f"query   {query['model']} ({query['records']['vectorized']['n_ops']} ops): "
        f"sequential {query['pre_pr_s']:.2f}s -> batch {query['vectorized_s']:.2f}s "
        f"= {query['speedup']:.1f}x"
    )
    print(
        f"compile {comp['model']} gbt backend: seed {comp['pre_pr_s']:.2f}s -> "
        f"vectorized {comp['vectorized_s']:.2f}s = {comp['speedup']:.1f}x"
    )
    print(
        f"warm    cold {warm['cold_s']:.2f}s -> warm {warm['warm_s']:.2f}s, "
        f"warm trains={warm['warm_trains']} store_hits={warm['warm_store_hits']}"
    )

    # Acceptance bars: >= 10x histogram fit, >= 25x batched whole-graph
    # capacity queries, >= 5x end-to-end gbt-backend compile, and a warm
    # store-cached rerun that retrains nothing.
    assert fit["speedup"] >= 10.0
    assert query["speedup"] >= 25.0
    assert comp["speedup"] >= 5.0
    assert warm["warm_trains"] == 0
    assert warm["warm_store_hits"] >= 1
    assert (
        comp["records"]["vectorized"]["status"]
        in ("OPTIMAL", comp["records"]["pre_pr"]["status"])
    )

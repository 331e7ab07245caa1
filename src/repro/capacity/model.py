"""The trained load-capacity model: per-layer C_l for the LC-OPG solver.

Combines the class thresholds (0% / 20% / 300%, paper §4.2) with a latency
predictor.  Two predictor backends:

- ``analytic`` — invert the simulator's cost model directly (exact);
- ``gbt`` — the paper's approach: train the gradient-boosted regressor on
  profiled samples and invert the *prediction* by bisection.

Both yield a :class:`LoadCapacityModel` exposing ``capacity_bytes(op)``,
which the solver consumes as C_l (converted to chunks).  Hot callers
(the fusion loop, the runtime planners, the OPG builder) go through
``capacity_bytes_batch(ops)``, which advances every operator's bisection in
lockstep — one batched regressor call per step instead of one single-row
predict per (op, step) — and memoizes results per op fingerprint.
``tests/capacity/test_capacity_pipeline.py`` holds it to a sequential
per-op bisection (``tests/oracles/capacity.py``) for both backends.

The fingerprint memo lives as long as the model and still derives a
fingerprint for every op it is asked about.  LC-OPG keeps a second memo
on top, by spec identity, for the life of one solver (one compile), so an
adaptive-fusion re-solve asks this model only about the specs its splits
created (``LcOpgSolver._layer_chunks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.capacity.classify import threshold_for
from repro.capacity.features import (
    LOAD_LOG_COL,
    LOAD_RATIO_COL,
    featurize,
    load_feature_columns,
)
from repro.capacity.gbt import GBTConfig, GradientBoostedTrees
from repro.capacity.profiler import LoadCapacityProfiler, ProfileDataset
from repro.gpusim.device import DeviceProfile
from repro.gpusim.kernels import KernelCostModel
from repro.graph.dag import Graph
from repro.graph.ops import OpSpec


@dataclass
class CapacityModelReport:
    """Fit diagnostics (Figure 4 reproduction)."""

    n_samples: int
    train_rmse_log10: float
    holdout_rmse_log10: float

    @property
    def holdout_mean_rel_error(self) -> float:
        """Approximate mean relative latency error implied by log-RMSE."""
        return 10**self.holdout_rmse_log10 - 1.0


class LoadCapacityModel:
    """Per-operator load capacities C_l derived from a latency predictor."""

    def __init__(
        self,
        device: DeviceProfile,
        *,
        backend: str = "analytic",
        regressor: Optional[GradientBoostedTrees] = None,
    ) -> None:
        if backend not in ("analytic", "gbt"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "gbt" and regressor is None:
            raise ValueError("gbt backend requires a fitted regressor")
        self.device = device
        self.backend = backend
        self.cost = KernelCostModel(device)
        self.regressor = regressor
        self.report: Optional[CapacityModelReport] = None
        self._capacity_memo: Dict[tuple, int] = {}
        self.stats: Dict[str, int] = {
            "queries": 0,
            "memo_hits": 0,
            "bisections": 0,
            "batch_predicts": 0,
        }

    # ------------------------------------------------------------ training
    @classmethod
    def train(
        cls,
        device: DeviceProfile,
        graphs: Iterable[Graph],
        *,
        seed: int = 0,
        gbt_config: Optional[GBTConfig] = None,
        max_ops_per_model: int = 40,
    ) -> "LoadCapacityModel":
        """Profile ``graphs`` and fit the GBT latency regressor (paper path)."""
        profiler = LoadCapacityProfiler(device, seed=seed)
        dataset = profiler.profile_models(graphs, max_ops_per_model=max_ops_per_model)
        return cls.from_dataset(device, dataset, seed=seed, gbt_config=gbt_config)

    @classmethod
    def from_dataset(
        cls,
        device: DeviceProfile,
        dataset: ProfileDataset,
        *,
        seed: int = 0,
        gbt_config: Optional[GBTConfig] = None,
    ) -> "LoadCapacityModel":
        train, holdout = dataset.split(holdout=0.2, seed=seed)
        X, y = train.matrices()
        config = gbt_config or GBTConfig(seed=seed)
        reg = GradientBoostedTrees(config).fit(X, y)
        Xh, yh = holdout.matrices()
        model = cls(device, backend="gbt", regressor=reg)
        model.report = CapacityModelReport(
            n_samples=len(dataset),
            train_rmse_log10=reg.train_rmse_ or 0.0,
            holdout_rmse_log10=reg.score_rmse(Xh, yh) if len(holdout) else 0.0,
        )
        return model

    # ------------------------------------------------------------ capacities
    @staticmethod
    def _op_key(op: OpSpec) -> tuple:
        """Fingerprint of every op attribute the capacity depends on."""
        return (
            op.kind,
            op.op_class,
            op.flops,
            op.bytes_moved,
            op.input_bytes,
            op.output_bytes,
            op.output_spec.numel,
        )

    def _leaf_specs(self, op: OpSpec) -> List[OpSpec]:
        """Non-fused constituent ops (the op itself when not fused)."""
        from repro.fusion.fuser import fused_members, is_fused

        if not is_fused(op):
            return [op]
        leaves: List[OpSpec] = []
        for member in fused_members(op):
            leaves.extend(self._leaf_specs(member))
        return leaves

    def capacity_bytes(self, op: OpSpec) -> int:
        """Load capacity C_l of one operator, in bytes.

        The largest embedded load whose (predicted) latency stays within the
        class threshold of the base latency.  Hierarchical operators get 0.
        Fused kernels collapse to roughly the minimum of their members'
        capacities (paper §4.3: ``C_fused ~= min(C_1, ..., C_k)``) — the
        fused loop structure is paced by its least load-tolerant stage.
        """
        return self.capacity_bytes_batch([op])[0]

    def capacity_bytes_batch(self, ops: Sequence[OpSpec]) -> List[int]:
        """Load capacities for many operators with lockstep bisection.

        Resolves fused ops to their leaf members, computes every uncached
        leaf capacity in a single batch (the ``gbt`` backend advances all
        bisections simultaneously — one batched regressor call per step),
        and memoizes per op fingerprint so repeated fusion-loop queries are
        dictionary lookups.  Returns plain Python ints, identical to one
        sequential 40-step bisection per op.
        """
        memo = self._capacity_memo
        self.stats["queries"] += len(ops)

        resolved: List[Tuple[tuple, List[Tuple[tuple, OpSpec]]]] = []
        pending: Dict[tuple, OpSpec] = {}
        for op in ops:
            leaves = self._leaf_specs(op)
            lkeys = [self._op_key(s) for s in leaves]
            okey = lkeys[0] if len(lkeys) == 1 else ("fused", tuple(lkeys))
            resolved.append((okey, list(zip(lkeys, leaves))))
            if okey in memo:
                self.stats["memo_hits"] += 1
                continue
            for key, spec in zip(lkeys, leaves):
                if key not in memo and key not in pending:
                    pending[key] = spec

        if pending:
            keys = list(pending)
            specs = [pending[k] for k in keys]
            thresholds = [threshold_for(s) for s in specs]
            if self.backend == "analytic":
                values = [
                    0 if t <= 0.0 else self.cost.load_capacity_bytes(s, t)
                    for s, t in zip(specs, thresholds)
                ]
            else:
                values = self._gbt_capacity_lockstep(specs, thresholds)
            for key, value in zip(keys, values):
                memo[key] = int(value)

        out: List[int] = []
        for okey, leaves in resolved:
            value = memo.get(okey)
            if value is None:
                value = min(memo[key] for key, _ in leaves)
                memo[okey] = value
            out.append(value)
        return out

    @staticmethod
    def _set_load_columns(
        X: np.ndarray, extras: Sequence[int], input_bytes: Sequence[int]
    ) -> None:
        log_col, ratio_col = load_feature_columns(extras, input_bytes)
        X[:, LOAD_LOG_COL] = log_col
        X[:, LOAD_RATIO_COL] = ratio_col

    def _gbt_capacity_lockstep(
        self, specs: Sequence[OpSpec], thresholds: Sequence[float]
    ) -> List[int]:
        """Bisect all ops' capacities at once over batched regressor calls."""
        assert self.regressor is not None
        results = [0] * len(specs)
        active = [i for i, t in enumerate(thresholds) if t > 0.0]
        if not active:
            return results

        X = np.vstack([featurize(specs[i], 0) for i in active])
        self.stats["batch_predicts"] += 1
        base_log = self.regressor.predict(X)
        limit = (10.0**base_log) * (
            1.0 + np.asarray([thresholds[i] for i in active], dtype=float)
        )
        input_bytes = [max(1, specs[i].input_bytes) for i in active]
        hi0 = [max(specs[i].input_bytes * 16, 1 << 20) for i in active]

        # Ops already within the latency limit at the top of the search
        # range saturate there.
        self._set_load_columns(X, hi0, input_bytes)
        self.stats["batch_predicts"] += 1
        saturated = (10.0 ** self.regressor.predict(X)) <= limit
        remaining = []
        for pos, i in enumerate(active):
            if saturated[pos]:
                results[i] = hi0[pos]
            else:
                remaining.append(pos)
        if not remaining:
            return results

        rows = np.asarray(remaining)
        Xr = np.ascontiguousarray(X[rows])
        limit_r = limit[rows]
        ib_r = [input_bytes[p] for p in remaining]
        lo = np.zeros(len(remaining), dtype=np.int64)
        hi = np.asarray([hi0[p] for p in remaining], dtype=np.int64)
        self.stats["bisections"] += len(remaining)
        for _ in range(40):
            # Once every interval is down to one step, mid == lo and no
            # further step can move lo.
            if (hi - lo <= 1).all():
                break
            mid = (lo + hi) // 2
            mids = [int(v) for v in mid]
            self._set_load_columns(Xr, mids, ib_r)
            self.stats["batch_predicts"] += 1
            ok = (10.0 ** self.regressor.predict(Xr)) <= limit_r
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        for pos, p in enumerate(remaining):
            results[active[p]] = int(lo[pos])
        return results

    def capacity_chunks(self, op: OpSpec, chunk_bytes: int) -> int:
        """C_l expressed in whole chunks (the solver's unit)."""
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        return self.capacity_bytes(op) // chunk_bytes

    def capacity_chunks_batch(self, ops: Sequence[OpSpec], chunk_bytes: int) -> List[int]:
        """Batched :meth:`capacity_chunks` over the lockstep capacity path."""
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        return [c // chunk_bytes for c in self.capacity_bytes_batch(ops)]


def analytic_capacity_model(device: DeviceProfile) -> LoadCapacityModel:
    """Exact capacity model straight from the simulator's cost model."""
    return LoadCapacityModel(device, backend="analytic")

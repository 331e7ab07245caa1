"""Persistent capacity-model caching (``ArtifactStore`` kind ``"capacity-model"``).

Training the paper's GBT latency regressor — profile a model zoo under
embedded loads, fit a few hundred histogram trees — is the expensive part
of the ``gbt`` capacity backend, and it is pure function of
(device, profile configuration, GBT configuration, seed).  This module
gives it the same :func:`~repro.core.store.read_through` treatment compiled
plans get: sweeps, the compile service, and fleet replay train each
(device, profile-set) regressor once and warm-reuse it across processes
that share the active store.  An in-process dict sits in front of the
store so repeated ``trained_capacity_model`` calls within one process are
lookups.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.capacity.gbt import GBTConfig
from repro.capacity.model import LoadCapacityModel
from repro.capacity.profiler import (
    DEFAULT_LOAD_RATIOS,
    LoadCapacityProfiler,
    ProfileDataset,
)
from repro.core.store import read_through, stable_fingerprint
from repro.gpusim.device import DeviceProfile, get_device
from repro.graph.models import EVALUATED_MODELS, load_model

#: The profile set the default ``gbt`` backend trains on: every model the
#: paper evaluates (the paper profiles "more than ten models", §4.2).
DEFAULT_PROFILE_MODELS: Tuple[str, ...] = tuple(EVALUATED_MODELS)

#: Stratified per-model op budget; 24 ops × 8 load ratios × 11 models is a
#: fig4-scale dataset (~2k samples) that profiles in well under a second.
DEFAULT_MAX_OPS_PER_MODEL = 24

#: Relative lognormal measurement jitter (the profiler's default).
DEFAULT_PROFILE_NOISE = 0.03

#: In-process model cache keyed by the store key's fingerprint.
_MODELS: Dict[str, LoadCapacityModel] = {}

#: Process-global count of regressor fits this process actually ran.  The
#: warm-reuse benchmark bar asserts a warm store-cached rerun keeps it at 0.
STATS: Dict[str, int] = {"trains": 0}


def clear_capacity_cache() -> None:
    """Drop in-process cached models (the persistent store is untouched)."""
    _MODELS.clear()


def capacity_model_key(
    device_name: str,
    *,
    models: Sequence[str],
    max_ops_per_model: int,
    noise: float,
    ratios: Sequence[float],
    gbt_config: GBTConfig,
    seed: int,
) -> Dict[str, Any]:
    """Artifact address of one trained capacity model.

    Keyed by everything the fitted regressor is a function of: the device,
    the profiling configuration (model set, per-model op budget, noise,
    load-ratio sweep), the GBT hyperparameters, and the seed.
    """
    return {
        "kind": "capacity-model",
        "device": device_name,
        "profile": {
            "models": [str(m) for m in models],
            "max_ops_per_model": int(max_ops_per_model),
            "noise": float(noise),
            "ratios": [float(r) for r in ratios],
        },
        "gbt": asdict(gbt_config),
        "seed": int(seed),
    }


def _profile(
    device: DeviceProfile,
    models: Sequence[str],
    *,
    max_ops_per_model: int,
    noise: float,
    ratios: Sequence[float],
    seed: int,
) -> ProfileDataset:
    profiler = LoadCapacityProfiler(device, noise=noise, seed=seed)
    dataset = ProfileDataset()
    for name in models:
        graph = load_model(name)
        part = profiler.profile_graph(graph, max_ops=max_ops_per_model, ratios=ratios)
        dataset.samples.extend(part.samples)
    return dataset


def trained_capacity_model(
    device: Union[str, DeviceProfile],
    *,
    seed: int = 0,
    models: Sequence[str] = DEFAULT_PROFILE_MODELS,
    max_ops_per_model: int = DEFAULT_MAX_OPS_PER_MODEL,
    noise: float = DEFAULT_PROFILE_NOISE,
    ratios: Sequence[float] = DEFAULT_LOAD_RATIOS,
    gbt_config: Optional[GBTConfig] = None,
) -> LoadCapacityModel:
    """The ``gbt``-backend capacity model for ``device``, read-through cached.

    Checks the in-process cache, then the persistent store; only on a full
    miss does it profile ``models`` and fit the regressor (recording the
    train in :data:`STATS` and publishing the result to the store).  The
    returned model is identical to a direct
    ``LoadCapacityModel.train(device, graphs, seed=seed)`` over the same
    profile configuration.
    """
    profile = get_device(device) if isinstance(device, str) else device
    config = gbt_config or GBTConfig(seed=seed)
    key = capacity_model_key(
        profile.name,
        models=models,
        max_ops_per_model=max_ops_per_model,
        noise=noise,
        ratios=ratios,
        gbt_config=config,
        seed=seed,
    )
    fingerprint = stable_fingerprint(key)
    model = _MODELS.get(fingerprint)
    if model is not None:
        return model

    def train() -> Dict[str, Any]:
        dataset = _profile(
            profile, models,
            max_ops_per_model=max_ops_per_model, noise=noise, ratios=ratios, seed=seed,
        )
        trained = LoadCapacityModel.from_dataset(profile, dataset, seed=seed, gbt_config=config)
        STATS["trains"] += 1
        return {"regressor": trained.regressor, "report": trained.report}

    payload = read_through(key, train)
    model = LoadCapacityModel(profile, backend="gbt", regressor=payload["regressor"])
    model.report = payload["report"]
    _MODELS[fingerprint] = model
    return model

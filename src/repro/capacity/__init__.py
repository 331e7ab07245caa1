"""Load-capacity subsystem: operator classification, profiling, and the
GBT latency regressor that hands per-layer capacities C_l to the solver."""

from repro.capacity.classify import (
    CLASS_THRESHOLDS,
    TABLE5_ROWS,
    can_host_loads,
    classify,
    threshold_for,
    threshold_for_kind,
)
from repro.capacity.cache import capacity_model_key, trained_capacity_model
from repro.capacity.gbt import FlatTree, GBTConfig, GradientBoostedTrees
from repro.capacity.model import (
    CapacityModelReport,
    LoadCapacityModel,
    analytic_capacity_model,
)
from repro.capacity.profiler import (
    DEFAULT_LOAD_RATIOS,
    LoadCapacityProfiler,
    ProfileDataset,
    ProfileSample,
)

__all__ = [
    "CLASS_THRESHOLDS",
    "TABLE5_ROWS",
    "can_host_loads",
    "classify",
    "threshold_for",
    "threshold_for_kind",
    "FlatTree",
    "GBTConfig",
    "GradientBoostedTrees",
    "capacity_model_key",
    "trained_capacity_model",
    "CapacityModelReport",
    "LoadCapacityModel",
    "analytic_capacity_model",
    "DEFAULT_LOAD_RATIOS",
    "LoadCapacityProfiler",
    "ProfileDataset",
    "ProfileSample",
]

"""Runtimes: FlashMem streaming executor, preloading baselines, naive
overlap strategies, and the multi-model FIFO pipeline."""

from repro.runtime.executor import FlashMemExecutor
from repro.runtime.frameworks import (
    BASELINE_ORDER,
    EXECUTORCH,
    FRAMEWORK_PROFILES,
    LITERT,
    MNN,
    NCNN,
    SMARTMEM,
    TVM,
    FrameworkProfile,
    get_profile,
)
from repro.runtime.multimodel import (
    FifoPipeline,
    PipelineInvocation,
    PipelineResult,
    fifo_schedule,
)
from repro.runtime.naive_overlap import AlwaysNextPlanner, SameOpTypePlanner
from repro.runtime.preemptive import (
    PreemptionOutcome,
    flashmem_resume_factory,
    run_preemption_episode,
)
from repro.runtime.preload import ModelNotSupportedError, PreloadExecutor
from repro.runtime.scenario import (
    Scenario,
    available_scenarios,
    make_scenario,
)

__all__ = [
    "FlashMemExecutor",
    "Scenario",
    "available_scenarios",
    "make_scenario",
    "BASELINE_ORDER",
    "EXECUTORCH",
    "FRAMEWORK_PROFILES",
    "LITERT",
    "MNN",
    "NCNN",
    "SMARTMEM",
    "TVM",
    "FrameworkProfile",
    "get_profile",
    "FifoPipeline",
    "PipelineInvocation",
    "PipelineResult",
    "fifo_schedule",
    "AlwaysNextPlanner",
    "SameOpTypePlanner",
    "PreemptionOutcome",
    "flashmem_resume_factory",
    "run_preemption_episode",
    "ModelNotSupportedError",
    "PreloadExecutor",
]

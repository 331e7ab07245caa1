"""Shared infrastructure for the experiment drivers.

All drivers use one standard experiment configuration (the library
defaults, whose per-window node budget keeps a compile to about a second)
and two cache layers so Table 7, Table 8, Table 9, and
Figure 10 reuse each (model, device) compilation instead of re-solving:

- an in-process ``lru_cache`` layer (always on, exactly the seed behavior);
- the process's persistent store, when one is installed with
  :func:`repro.core.store.swap_store`: each cell goes through
  :func:`~repro.core.store.read_through`, so sweep workers and repeated CLI
  invocations load each other's compiled models and run results instead of
  re-solving.

Keys carry (model, device, config fingerprint), and the store folds in the
fingerprint of the ``repro`` source, so a config or code change addresses
fresh entries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Optional

from repro.capacity import cache as capacity_cache
from repro.capacity.model import LoadCapacityModel, analytic_capacity_model
from repro.core.config import FlashMemConfig
from repro.core.flashmem import CompiledModel, FlashMem
from repro.core.store import flashmem_config_fingerprint, read_through
from repro.gpusim.device import get_device
from repro.gpusim.timeline import RunResult
from repro.graph.dag import Graph
from repro.graph.lowering import eliminate_layout_ops
from repro.graph.models import load_decode_model, load_model
from repro.opg.problem import OpgConfig
from repro.runtime.frameworks import get_profile
from repro.runtime.preload import ModelNotSupportedError, PreloadExecutor
from repro.runtime.scenario import Scenario

#: Default evaluation device (the paper's primary target).
DEFAULT_DEVICE = "OnePlus 12"

#: The canonical single-pass prefill scenario every legacy table/figure cell
#: runs under; sweep cache probes reuse it so their keys match the cells'.
PREFILL_ONCE = Scenario.prefill(1)

#: Stored in place of a result for (framework, model) pairs the framework
#: does not support — ``ArtifactStore`` cannot distinguish a stored None
#: from a miss.
_UNSUPPORTED = "__model-not-supported__"


def experiment_flashmem_config(**overrides) -> FlashMemConfig:
    """Standard experiment pipeline config: the library defaults, with
    ``capacity_backend``/``capacity_seed`` overrides landing on the
    :class:`FlashMemConfig` and everything else on its :class:`OpgConfig`."""
    fm_kwargs = {}
    for key in ("capacity_backend", "capacity_seed"):
        if key in overrides:
            fm_kwargs[key] = overrides.pop(key)
    return FlashMemConfig(opg=OpgConfig(**overrides), **fm_kwargs)


def experiment_config_fingerprint() -> str:
    """Fingerprint of the standard experiment configuration."""
    return flashmem_config_fingerprint(experiment_flashmem_config())


def compile_key(
    model: str,
    device_name: str,
    context_len: int = 0,
    *,
    config: Optional[FlashMemConfig] = None,
) -> Dict[str, Any]:
    """Artifact address of one compilation.

    ``config=None`` fingerprints the standard experiment configuration, so
    experiment drivers, sweep workers, and service requests running default
    settings all address the *same* stored artifact; an explicit config
    (service requests with a custom λ or capacity backend) addresses its
    own entry.
    """
    fingerprint = (experiment_config_fingerprint() if config is None
                   else flashmem_config_fingerprint(config))
    key = {"kind": "compiled", "model": model, "device": device_name,
           "config": fingerprint}
    if context_len:
        key["context_len"] = int(context_len)
    return key


def flashmem_run_key(
    model: str, device_name: str, scenario: Scenario
) -> Dict[str, Any]:
    return {"kind": "flashmem-run", "model": model, "device": device_name,
            "scenario": scenario.cache_key(), "config": experiment_config_fingerprint()}


def framework_run_key(
    framework: str, model: str, device_name: str, scenario: Scenario
) -> Dict[str, Any]:
    return {"kind": "framework-run", "framework": framework, "model": model,
            "device": device_name, "scenario": scenario.cache_key()}


# ------------------------------------------------------------ cached cells
@lru_cache(maxsize=64)
def cached_graph(model: str) -> Graph:
    return load_model(model)


@lru_cache(maxsize=16)
def cached_capacity(device_name: str, backend: str = "analytic") -> LoadCapacityModel:
    """Capacity model per (device, backend).

    ``gbt`` goes through the read-through capacity-model cache
    (:mod:`repro.capacity.cache`): trained once per device across
    processes sharing a store, warm-loaded everywhere else.
    """
    if backend == "gbt":
        return capacity_cache.trained_capacity_model(get_device(device_name))
    return analytic_capacity_model(get_device(device_name))


def _compile(graph: Graph, device_name: str) -> CompiledModel:
    fm = FlashMem(experiment_flashmem_config())
    return fm.compile(graph, get_device(device_name), capacity=cached_capacity(device_name))


def _preload_run(framework: str, device_name: str, graph: Graph, scenario: Scenario,
                 *, check_support: bool = True) -> Any:
    """One baseline run, or :data:`_UNSUPPORTED` when the framework cannot
    run the model."""
    profile = get_profile(framework)
    try:
        return PreloadExecutor(profile, get_device(device_name)).run(
            graph, scenario=scenario, check_support=check_support
        )
    except ModelNotSupportedError:
        return _UNSUPPORTED


@lru_cache(maxsize=64)
def cached_compile(model: str, device_name: str) -> CompiledModel:
    """Full-pipeline FlashMem compilation, cached per (model, device)."""
    return read_through(compile_key(model, device_name),
                        lambda: _compile(cached_graph(model), device_name))


@lru_cache(maxsize=256)
def flashmem_result(model: str, device_name: str, iterations: int = 1) -> RunResult:
    """Cached FlashMem prefill run (``iterations`` passes of the graph)."""
    scenario = Scenario.prefill(iterations)
    return read_through(
        flashmem_run_key(model, device_name, scenario),
        lambda: FlashMem(experiment_flashmem_config()).run(
            cached_compile(model, device_name), scenario=scenario),
    )


@lru_cache(maxsize=512)
def framework_result(
    framework: str, model: str, device_name: str, iterations: int = 1
) -> Optional[RunResult]:
    """Cached baseline prefill run; None when the framework lacks support.

    Baselines other than SmartMem execute the raw lowered graph (layout ops
    included); SmartMem — whose contribution is layout-transformation
    elimination — runs the layout-eliminated graph, like FlashMem.
    """
    scenario = Scenario.prefill(iterations)

    def run() -> Any:
        graph = cached_graph(model)
        if framework == "SMem":
            graph = eliminate_layout_ops(graph)
        return _preload_run(framework, device_name, graph, scenario)

    result = read_through(framework_run_key(framework, model, device_name, scenario), run)
    return None if result == _UNSUPPORTED else result


# ------------------------------------------------------------- decode cells
@lru_cache(maxsize=64)
def cached_decode_graph(model: str, context_len: int) -> Graph:
    return load_decode_model(model, context_len=context_len)


@lru_cache(maxsize=64)
def cached_decode_compile(model: str, device_name: str, context_len: int) -> CompiledModel:
    """Decode-phase compilation (weights resident, KV residency planned),
    cached per (model, device, prompt length)."""
    return read_through(compile_key(model, device_name, context_len),
                        lambda: _compile(cached_decode_graph(model, context_len), device_name))


@lru_cache(maxsize=256)
def flashmem_decode_result(
    model: str, device_name: str, context_len: int, tokens: int
) -> RunResult:
    """Cached FlashMem autoregressive decode: ``tokens`` generated after a
    ``context_len``-token prompt, KV cache streamed per the residency plan."""
    scenario = Scenario.decode(tokens=tokens, context_len=context_len)
    return read_through(
        flashmem_run_key(model, device_name, scenario),
        lambda: FlashMem(experiment_flashmem_config()).run(
            cached_decode_compile(model, device_name, context_len), scenario=scenario),
    )


@lru_cache(maxsize=256)
def framework_decode_result(
    framework: str, model: str, device_name: str, context_len: int, tokens: int
) -> Optional[RunResult]:
    """Cached preloading-baseline decode (unbounded KV growth)."""
    scenario = Scenario.decode(tokens=tokens, context_len=context_len)
    result = read_through(
        framework_run_key(framework, model, device_name, scenario),
        lambda: _preload_run(framework, device_name, cached_decode_graph(model, context_len),
                             scenario, check_support=False),
    )
    return None if result == _UNSUPPORTED else result


def clear_caches() -> None:
    """Drop all in-process cached compilations/results (tests use this for
    isolation).  The persistent store, if one is active, is untouched."""
    for fn in (cached_graph, cached_capacity, cached_compile, flashmem_result,
               framework_result, cached_decode_graph, cached_decode_compile,
               flashmem_decode_result, framework_decode_result):
        fn.cache_clear()
    capacity_cache.clear_capacity_cache()

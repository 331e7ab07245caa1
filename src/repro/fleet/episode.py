"""Episode memo: each distinct fleet episode is simulated exactly once.

An *episode* is one invocation's full simulation under a fixed
``(model, device, runtime, scenario, throttle-state)`` tuple.  A fleet trace
has thousands of invocations but only a handful of distinct episodes, so the
provider simulates each once — through :func:`~repro.core.store.read_through`
(kind ``episode``), like the compiled models in
:mod:`repro.experiments.common` — and answers every further invocation from
the memo.  An episode keeps its memory timeline as absolute ``(times,
totals)`` columns ending in the teardown row ``(latency_ms, 0)``, built and
validated once in :meth:`Episode.from_run`; replay streams them into the
cell's digest and step integral shifted to the invocation's start, so a
replayed session is bitwise-identical to re-simulating (the simulator is
deterministic and the totals are exact int64 byte counts).

``memoize=False`` turns the provider into the naive engine (a fresh
simulation per invocation) — the A/B baseline the throughput benchmark and
the byte-identity tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.store import read_through
from repro.experiments import common
from repro.graph.lowering import eliminate_layout_ops
from repro.gpusim.device import THROTTLE_STATES, get_device
from repro.gpusim.timeline import RunResult
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.frameworks import get_profile
from repro.runtime.preload import PreloadExecutor
from repro.runtime.scenario import Scenario


@dataclass(frozen=True)
class Episode:
    """One simulated invocation, stored in replayable columnar form."""

    model: str
    device: str
    runtime: str
    scenario: Scenario
    state: str
    latency_ms: float
    energy_j: float
    #: Max of ``totals`` (the run's ``peak_memory_bytes``, which executors
    #: take from the same timeline).
    peak_bytes: int
    oom: bool
    #: Memory timeline as absolute columns on the episode's own clock: the
    #: run's timeline rows, then the teardown row ``(latency_ms, 0)``.
    times: np.ndarray
    totals: np.ndarray

    @classmethod
    def from_run(
        cls,
        result: RunResult,
        *,
        scenario: Scenario,
        state: str,
    ) -> "Episode":
        """Columns of ``result``'s timeline, checked replayable.

        Raises ``ValueError`` if a total is negative or a row lies outside
        ``[0, latency_ms]`` or out of time order: replay lays sessions end to
        end, which is a valid timeline only when each stays inside its own
        ``[start, end]`` window.
        """
        memory = result.memory
        times = np.append(memory.times, np.float64(result.latency_ms))
        totals = np.append(memory.totals, np.int64(0))
        label = f"{result.model}/{result.runtime}@{result.device} episode"
        if totals.min() < 0:
            raise ValueError(f"{label}: memory cannot be negative")
        if not (times[0] >= 0.0 and np.all(times[1:] >= times[:-1])):
            raise ValueError(
                f"{label}: timeline samples must be time-sorted within "
                f"[0, latency_ms={result.latency_ms}]"
            )
        return cls(
            model=result.model,
            device=result.device,
            runtime=result.runtime,
            scenario=scenario,
            state=state,
            latency_ms=result.latency_ms,
            energy_j=result.energy_j,
            peak_bytes=int(totals.max()),
            oom=bool(result.details.get("oom")),
            times=times,
            totals=totals,
        )


def episode_key(
    model: str, device_name: str, runtime: str, scenario: Scenario, state: str
) -> Dict[str, Any]:
    """Artifact-store address of one episode."""
    return {
        "kind": "episode",
        "model": model,
        "device": device_name,
        "runtime": runtime,
        "scenario": scenario.cache_key(),
        "throttle": state,
        "config": common.experiment_config_fingerprint(),
    }


class EpisodeProvider:
    """Read-through episode cache over the deterministic simulator.

    ``get`` answers from, in order: the in-process memo, the active
    artifact store, and a fresh simulation.  With ``memoize=False`` every
    ``get`` simulates — the naive per-invocation engine used as the
    benchmark baseline.
    """

    def __init__(self, *, memoize: bool = True) -> None:
        self.memoize = memoize
        self._memo: Dict[Tuple[Any, ...], Episode] = {}
        #: Full simulations performed by this provider.
        self.simulated = 0
        #: ``get`` calls answered without simulating (memo or store).
        self.replayed = 0

    def get(
        self,
        model: str,
        device_name: str,
        runtime: str,
        scenario: Scenario,
        state: str = "nominal",
    ) -> Episode:
        if state not in THROTTLE_STATES:
            raise KeyError(
                f"unknown throttle state {state!r}; "
                f"available: {sorted(THROTTLE_STATES)}"
            )

        def simulate() -> Episode:
            self.simulated += 1
            return self._simulate(model, device_name, runtime, scenario, state)

        if not self.memoize:
            return simulate()
        memo_key = (model, device_name, runtime, scenario, state)
        simulated = self.simulated
        episode = self._memo.get(memo_key)
        if episode is None:
            episode = self._memo[memo_key] = read_through(
                episode_key(model, device_name, runtime, scenario, state), simulate
            )
        if self.simulated == simulated:
            self.replayed += 1
        return episode

    # ------------------------------------------------------------ simulate
    def _simulate(
        self,
        model: str,
        device_name: str,
        runtime: str,
        scenario: Scenario,
        state: str,
    ) -> Episode:
        device = get_device(device_name).throttled(state)
        if runtime == "FlashMem":
            # Plans are compiled offline for the nominal device (the
            # compile-time artifact); the throttle is a runtime condition
            # applied at execution.
            if scenario.is_decode:
                compiled = common.cached_decode_compile(
                    model, device_name, scenario.context_len
                )
            else:
                compiled = common.cached_compile(model, device_name)
            config = common.experiment_flashmem_config()
            executor = FlashMemExecutor(
                device, rewriting=config.use_kernel_rewriting
            )
            result = executor.run(
                compiled.graph, compiled.plan, compiled.bundle, scenario=scenario
            )
        else:
            profile = get_profile(runtime)
            if scenario.is_decode:
                graph = common.cached_decode_graph(model, scenario.context_len)
            else:
                graph = common.cached_graph(model)
                if runtime == "SMem":
                    graph = eliminate_layout_ops(graph)
            result = PreloadExecutor(profile, device).run(
                graph, scenario=scenario, check_support=False
            )
        return Episode.from_run(result, scenario=scenario, state=state)

"""Bench: simulation hot path — fast path vs pre-PR scalar emulation.

Written to ``results/BENCH_sim.json`` so future PRs can track the
trajectory.  Two A/B scenarios, each side measured in a fresh subprocess
(interleaved, minimum-of-N CPU-time samples; see ``conftest.ab_subprocess``
for the methodology).  Compiled plans come from the shared artifact store —
warmed by the parent before any child runs — so both sides execute
byte-identical plans and the ratio isolates the simulation work:

- **multi_iter** — GPTN-S x 16 FlashMem iterations.  The fast side prices
  the kernel cost table once and replays the recorded steady-state
  iteration trace for iterations >= 2.  Acceptance bar: >= 3x.
- **table7_grid** — one single-iteration pass over the full Table 7 grid
  (11 models x FlashMem + 6 preloading baselines).  Extrapolation cannot
  engage at iterations=1, so this isolates vectorized pricing + columnar
  event accounting.  Acceptance bar: >= 1.5x.

The seed side reverts the hot-path deltas inside its own process: the
scalar references from ``tests/oracles`` replace the pricing tables
(``pricing.kernel_time_table`` / ``flash_attention_time_table``) and
segment replay (``SegmentCore.run_segment`` simulates every pass) and
weight staging (``FlashMemExecutor._preload`` / ``PreloadExecutor._init``
submit and allocate one weight at a time), and ``CommandQueue`` /
``Simulation`` methods are monkeypatched to the pre-PR accounting — a
``QueueEvent`` object built per submit, busy/idle time recomputed by
walking the event log, interval merges through the sorting reference
implementation, the timeline integrated in pure python (a time-sorted row
list with a running total, turned into the timeline's columns at the
end), and graph aggregates (peak activations, total weight bytes, pricing
rows, weight texture sizes) recomputed per run instead of memoized on the
frozen graph.  ``tests/test_benchsmoke.py`` runs the seed side in-process
on a small scenario.

Both sides must report bitwise-identical simulated latencies (the fast
path's exactness contract); each scenario asserts that before the bar.
"""

import gc
import json
import pathlib
import time

from conftest import RESULTS_DIR, ab_subprocess, emit_record

MULTI_MODEL = "GPTN-S"
DEVICE = "OnePlus 12"
MULTI_ITERATIONS = 16

#: Timed passes inside each child (its record reports the fastest).
CHILD_REPEATS = 3
#: Child samples per A/B side (interleaved fast/seed; min is reported).
AB_SAMPLES = 2

#: The suite's persistent store (absolute: children run with a different
#: cwd).  Compiled plans are warmed here by the parent; run-result
#: entries written along the way are harmless cache content.
CACHE_DIR = str(pathlib.Path(__file__).resolve().parent.parent / ".artifact-cache")

#: multi_iter peak simulated memory per side.  Latencies are bitwise
#: identical (asserted below), but peak memory is NOT: the PR-5 columnar
#: timeline resolves equal-timestamp (release, allocate) delta pairs in
#: stable column order while the seed path's per-event sort breaks that
#: tie the other way, so each side samples the peak on a different side of
#: the tie point.  The delta is a known accounting artifact, pinned here
#: so an unintended change to either path shows up as a bench failure.
FAST_PEAK_MEMORY_BYTES = 277_542_400
SEED_PEAK_MEMORY_BYTES = 312_296_192


# ----------------------------------------------------------- seed emulation
def _install_seed_emulation(patch=setattr) -> None:
    """Monkeypatch the pre-PR simulation path into this process.

    ``patch(owner, name, value)`` makes each swap: plain ``setattr`` in a
    bench child, ``monkeypatch.setattr`` where the swaps must be undone.
    """
    from repro.graph.dag import Graph
    from repro.gpusim import pricing
    from repro.gpusim.engine import Simulation
    from repro.gpusim.queues import CommandQueue, QueueEvent
    from repro.gpusim.timeline import MemoryTimeline
    from repro.runtime.executor import FlashMemExecutor
    from repro.runtime.preload import PreloadExecutor
    from repro.runtime.segment import SegmentCore
    from tests.oracles import (
        busy_intervals_reference,
        init_every_weight,
        kernel_program_time_ms,
        preload_every_weight,
        run_segment_every_pass,
        scalar_flash_attention_time_table,
        scalar_kernel_time_table,
    )

    patch(pricing, "kernel_time_table", scalar_kernel_time_table)
    patch(pricing, "flash_attention_time_table", scalar_flash_attention_time_table)
    patch(SegmentCore, "run_segment", run_segment_every_pass)
    patch(FlashMemExecutor, "_preload", preload_every_weight)
    patch(PreloadExecutor, "_init", init_every_weight)

    # Pre-PR graphs recomputed every aggregate per simulated run.
    patch(Graph, "_frozen_aggregate", lambda self, key, compute: compute())

    # The pre-PR FlashMem executor priced every kernel with the scalar
    # model on every pass; the scalar path now prices each kernel once per
    # run.  (Preload runs here are single-pass, so they need no patch.)
    class PerPassPrices:
        def __init__(self, programs, device):
            self.programs, self.device = programs, device

        def __getitem__(self, pos):
            return kernel_program_time_ms(self.programs[pos], self.device)

    def seed_durations(self, bundle, nodes):
        return PerPassPrices([bundle.programs[node.index] for node in nodes], self.device)

    patch(FlashMemExecutor, "_durations", seed_durations)

    def seed_submit_fast(self, label, duration_ms, not_before=0.0, kind="work"):
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        start = max(self._free_at, not_before)
        end = start + duration_ms
        self._free_at = end
        self._labels.append(label)
        self._starts.append(start)
        self._ends.append(end)
        self._kinds.append(kind)
        # Pre-PR submit built one QueueEvent per item and kept the object
        # log as the source of truth; reuse the events cache as that log.
        cache = self._events_cache
        if cache is None:
            cache = []
            self._events_cache = cache
        cache.append(QueueEvent(label=label, start_ms=start, end_ms=end, kind=kind))
        return start, end

    def seed_busy_time_ms(self, *, kind=None):
        if kind is None:
            return sum(e.duration_ms for e in self.events)
        return sum(e.duration_ms for e in self.events if e.kind == kind)

    def seed_idle_time_ms(self):
        return self._free_at - seed_busy_time_ms(self)

    def seed_busy_intervals(self):
        return busy_intervals_reference(self.events)

    def seed_build_timeline(self):
        if self._timeline is not None and self._timeline[0] == len(self._times):
            return self._timeline[1]
        rows = [(0.0, 0)]
        total = 0
        for time_ms, amount in sorted(zip(self._times, self._amounts), key=lambda d: d[0]):
            total += amount
            if total < 0:
                raise ValueError("memory cannot be negative")
            rows.append((time_ms, total))
        timeline = MemoryTimeline([t for t, _ in rows], [v for _, v in rows])
        self._timeline = (len(self._times), timeline)
        return timeline

    patch(CommandQueue, "submit_fast", seed_submit_fast)
    patch(CommandQueue, "busy_time_ms", seed_busy_time_ms)
    patch(CommandQueue, "idle_time_ms", seed_idle_time_ms)
    patch(CommandQueue, "busy_intervals", seed_busy_intervals)
    patch(Simulation, "build_timeline", seed_build_timeline)


# --------------------------------------------------------------- scenarios
def _scenario_multi_iter(model=MULTI_MODEL, iterations=MULTI_ITERATIONS):
    """One FlashMem model, many iterations: (pass_fn, checksum_fn)."""
    from repro.experiments import common

    compiled = common.cached_compile(model, DEVICE)
    from repro.core.flashmem import FlashMem
    from repro.runtime.scenario import Scenario

    fm = FlashMem(common.experiment_flashmem_config())

    def one_pass():
        return fm.run(compiled, scenario=Scenario.prefill(iterations))

    def summarize(result):
        return {
            "latency_ms": result.latency_ms,
            "peak_memory_bytes": result.peak_memory_bytes,
            "replayed_iterations": int(result.details.get("replayed_iterations", 0)),
        }

    return one_pass, summarize


def _scenario_table7_grid():
    """Single-iteration pass over the full Table 7 grid."""
    from repro.experiments import common
    from repro.core.flashmem import FlashMem
    from repro.graph.lowering import eliminate_layout_ops
    from repro.graph.models import EVALUATED_MODELS
    from repro.gpusim.device import get_device
    from repro.runtime.frameworks import BASELINE_ORDER, get_profile
    from repro.runtime.preload import ModelNotSupportedError, PreloadExecutor

    device = get_device(DEVICE)
    fm = FlashMem(common.experiment_flashmem_config())
    # Everything compile-side is resolved before timing: plans from the
    # warm store, raw + layout-eliminated graphs built once.
    compiles = {m: common.cached_compile(m, DEVICE) for m in EVALUATED_MODELS}
    graphs = {m: common.cached_graph(m) for m in EVALUATED_MODELS}
    smem_graphs = {m: eliminate_layout_ops(g) for m, g in graphs.items()}
    profiles = [(fw, get_profile(fw)) for fw in BASELINE_ORDER]

    def one_pass():
        total = 0.0
        cells = 0
        for model in EVALUATED_MODELS:
            total += fm.run(compiles[model]).latency_ms
            cells += 1
            for fw, profile in profiles:
                graph = smem_graphs[model] if fw == "SMem" else graphs[model]
                try:
                    result = PreloadExecutor(profile, device).run(graph)
                except ModelNotSupportedError:
                    continue
                total += result.latency_ms
                cells += 1
        return total, cells

    def summarize(outcome):
        total, cells = outcome
        return {"latency_sum_ms": total, "cells": cells}

    return one_pass, summarize


_SCENARIOS = {
    "multi_iter": _scenario_multi_iter,
    "table7_grid": _scenario_table7_grid,
}


def _measure_side(side: str, scenario: str) -> None:
    """Child entry: time CHILD_REPEATS passes, report the fastest."""
    from repro.core.store import ArtifactStore, swap_store

    swap_store(ArtifactStore(CACHE_DIR))
    if side == "seed":
        _install_seed_emulation()
    one_pass, summarize = _SCENARIOS[scenario]()
    one_pass()  # warm up: imports, LRU caches, priced tables
    gc.collect()
    gc.disable()
    best = None
    outcome = None
    for _ in range(CHILD_REPEATS):
        cpu0 = time.process_time()
        outcome = one_pass()
        cpu = time.process_time() - cpu0
        if best is None or cpu < best:
            best = cpu
    gc.enable()
    record = {"side": side, "scenario": scenario, "cpu_s": round(best, 5)}
    record.update(summarize(outcome))
    emit_record(record)


# -------------------------------------------------------------------- parent
def _warm_compiles() -> None:
    """Populate the shared store with every compiled plan the children load."""
    from repro.core.store import ArtifactStore, swap_store
    from repro.experiments import common
    from repro.graph.models import EVALUATED_MODELS

    previous = swap_store(ArtifactStore(CACHE_DIR))
    try:
        for model in EVALUATED_MODELS:
            common.cached_compile(model, DEVICE)
    finally:
        swap_store(previous)


def _ab(scenario: str, identity_keys) -> dict:
    runs = {"fast": [], "seed": []}
    for _ in range(AB_SAMPLES):
        for side in ("fast", "seed"):
            runs[side].append(
                ab_subprocess("test_sim_throughput", "_measure_side", side, scenario)
            )
    best_fast = min(runs["fast"], key=lambda r: r["cpu_s"])
    best_seed = min(runs["seed"], key=lambda r: r["cpu_s"])
    # The exactness contract: both sides simulated the same numbers (floats
    # round-trip exactly through the JSON record protocol).
    for key in identity_keys:
        assert best_fast[key] == best_seed[key], (
            f"{scenario}: fast/seed {key} diverged: "
            f"{best_fast[key]!r} != {best_seed[key]!r}"
        )
    return {
        "scenario": scenario,
        "samples_per_side": AB_SAMPLES,
        "repeats_per_sample": CHILD_REPEATS,
        "pre_pr_s": best_seed["cpu_s"],
        "fast_s": best_fast["cpu_s"],
        "speedup": round(best_seed["cpu_s"] / best_fast["cpu_s"], 2),
        "fast": best_fast,
        "seed": best_seed,
    }


def _run_all():
    _warm_compiles()
    multi = _ab("multi_iter", identity_keys=("latency_ms",))
    grid = _ab("table7_grid", identity_keys=("latency_sum_ms", "cells"))
    return {"multi_iter": multi, "table7_grid": grid}


def test_sim_throughput(benchmark):
    result = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sim.json").write_text(json.dumps(result, indent=2) + "\n")

    multi = result["multi_iter"]
    grid = result["table7_grid"]
    print(
        f"\nmulti_iter ({MULTI_MODEL} x {MULTI_ITERATIONS} it): "
        f"pre-PR {multi['pre_pr_s']:.3f}s -> fast {multi['fast_s']:.3f}s "
        f"= {multi['speedup']:.2f}x "
        f"({multi['fast']['replayed_iterations']} iterations replayed)"
    )
    print(
        f"table7_grid ({grid['fast']['cells']} cells): "
        f"pre-PR {grid['pre_pr_s']:.3f}s -> fast {grid['fast_s']:.3f}s "
        f"= {grid['speedup']:.2f}x"
    )

    # Acceptance bars: extrapolation + tables >= 3x on the multi-iteration
    # run; vectorized pricing + columnar accounting alone >= 1.5x on the
    # single-pass grid.  Replay must actually have engaged on the fast side.
    assert multi["fast"]["replayed_iterations"] == MULTI_ITERATIONS - 2
    assert multi["speedup"] >= 3.0
    assert grid["speedup"] >= 1.5

    # The documented PR-5 tie-rule accounting delta (see the constants'
    # comment): latency identical, peak memory pinned per side.
    assert multi["fast"]["peak_memory_bytes"] == FAST_PEAK_MEMORY_BYTES
    assert multi["seed"]["peak_memory_bytes"] == SEED_PEAK_MEMORY_BYTES

"""Bench: decode steady-state extrapolation — segment replay vs per-token.

Written to ``results/BENCH_decode.json``.  One A/B scenario, each side
measured in a fresh subprocess (interleaved, minimum-of-N CPU-time samples;
see ``conftest.ab_subprocess``): a 1000-token GPTN-2.7B decode on the
OnePlus 12 after a 1024-token prompt.  The fast side records one token
per streaming context-length segment (a pure-compute segment needs none)
and bulk-replays the trace for the rest; the slow side (``SegmentCore.run_segment`` swapped for the
every-pass reference from ``tests/oracles`` in its child) prices and
simulates every token.  Both sides run the same
compiled plan from the shared artifact store, so the ratio isolates the
replay machinery.

The exactness contract is asserted before the bar: simulated latency and
peak memory must be bitwise identical across sides.  Acceptance bar:
>= 10x (a 1000-token decode costs a few tokens of simulation per segment).
"""

import gc
import json
import pathlib
import time

from conftest import RESULTS_DIR, ab_subprocess, emit_record

MODEL = "GPTN-2.7B"
DEVICE = "OnePlus 12"
CONTEXT = 1024
TOKENS = 1000

#: Timed passes inside each child (its record reports the fastest).
CHILD_REPEATS = 3
#: Child samples per A/B side (interleaved fast/full; min is reported).
AB_SAMPLES = 2

#: The suite's persistent store (absolute: children run with a different
#: cwd).  The compiled decode plan is warmed here by the parent.
CACHE_DIR = str(pathlib.Path(__file__).resolve().parent.parent / ".artifact-cache")


def _measure_side(side: str) -> None:
    """Child entry: time CHILD_REPEATS decode runs, report the fastest."""
    from repro.core.flashmem import FlashMem
    from repro.core.store import ArtifactStore, swap_store
    from repro.experiments import common
    from repro.runtime.scenario import Scenario
    from repro.runtime.segment import SegmentCore
    from tests.oracles import run_segment_every_pass

    if side != "fast":
        SegmentCore.run_segment = run_segment_every_pass
    swap_store(ArtifactStore(CACHE_DIR))
    compiled = common.cached_decode_compile(MODEL, DEVICE, CONTEXT)
    fm = FlashMem(common.experiment_flashmem_config())
    scenario = Scenario.decode(tokens=TOKENS, context_len=CONTEXT)

    def one_pass():
        return fm.run(compiled, scenario=scenario)

    one_pass()  # warm up: imports, LRU caches, priced tables
    gc.collect()
    gc.disable()
    best = None
    result = None
    for _ in range(CHILD_REPEATS):
        cpu0 = time.process_time()
        result = one_pass()
        cpu = time.process_time() - cpu0
        if best is None or cpu < best:
            best = cpu
    gc.enable()
    emit_record({
        "side": side,
        "cpu_s": round(best, 5),
        "latency_ms": result.latency_ms,
        "peak_memory_bytes": result.peak_memory_bytes,
        "ms_per_token": result.details["ms_per_token"],
        "replayed_tokens": int(result.details.get("replayed_tokens", 0)),
        "segments": int(result.details.get("segments", 0)),
    })


def _warm_compile() -> None:
    """Populate the shared store with the decode plan both children load."""
    from repro.core.store import ArtifactStore, swap_store
    from repro.experiments import common

    previous = swap_store(ArtifactStore(CACHE_DIR))
    try:
        common.cached_decode_compile(MODEL, DEVICE, CONTEXT)
    finally:
        swap_store(previous)


def _run_ab() -> dict:
    _warm_compile()
    runs = {"fast": [], "full": []}
    for _ in range(AB_SAMPLES):
        for side in ("fast", "full"):
            runs[side].append(
                ab_subprocess("test_decode_throughput", "_measure_side", side)
            )
    best_fast = min(runs["fast"], key=lambda r: r["cpu_s"])
    best_full = min(runs["full"], key=lambda r: r["cpu_s"])
    return {
        "model": MODEL,
        "device": DEVICE,
        "context_len": CONTEXT,
        "tokens": TOKENS,
        "samples_per_side": AB_SAMPLES,
        "repeats_per_sample": CHILD_REPEATS,
        "per_token_s": best_full["cpu_s"],
        "extrapolated_s": best_fast["cpu_s"],
        "speedup": round(best_full["cpu_s"] / best_fast["cpu_s"], 2),
        "fast": best_fast,
        "full": best_full,
    }


def test_decode_throughput(benchmark):
    result = benchmark.pedantic(_run_ab, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_decode.json").write_text(json.dumps(result, indent=2) + "\n")

    fast, full = result["fast"], result["full"]
    print(
        f"\ndecode ({MODEL} x {TOKENS} tokens @ context {CONTEXT}): "
        f"per-token {result['per_token_s']:.3f}s -> extrapolated "
        f"{result['extrapolated_s']:.3f}s = {result['speedup']:.2f}x "
        f"({fast['replayed_tokens']} of {TOKENS} tokens replayed "
        f"across {fast['segments']} segment(s))"
    )

    # The exactness contract: both sides simulated the same decode (floats
    # round-trip exactly through the JSON record protocol).
    assert fast["latency_ms"] == full["latency_ms"]
    assert fast["peak_memory_bytes"] == full["peak_memory_bytes"]
    assert fast["ms_per_token"] == full["ms_per_token"]

    # Replay must have engaged on the fast side only, then clear the bar.
    assert full["replayed_tokens"] == 0
    assert fast["replayed_tokens"] >= TOKENS - 3 * fast["segments"] - 3
    assert result["speedup"] >= 10.0

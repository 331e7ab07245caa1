"""Bench: end-to-end compile latency — incremental pipeline vs the pre-PR path.

Written to ``results/BENCH_compile.json`` so future PRs can track the
trajectory:

- **cold_compile** — one full ``FlashMem.compile`` per model (adaptive
  fusion + LC-OPG + artifact plan), wall seconds.
- **incremental_ab** — the headline A/B on GPTN-2.7B at the experiment
  config: the incremental pipeline (window-level solve reuse + fast numpy
  EDF oracle + memoized budgets + count-based windows) against an
  emulation of the pre-PR compile path, with window-reuse hit rates from
  the adaptive-fusion report.

The pre-PR baseline reverts all four compile-path deltas at once:
``SeedBudgets`` restores the unmemoized ``available()``,
``SeedPartitionSolver._windows`` restores the seed's layer-grid window
partition (48-layer grid), the seed EDF/prover oracles from
``tests/oracles`` replace ``lcopg.edf_feasible``/``lcopg.prove_window``,
and its ``ColdWindowCache`` replaces ``lcopg.WindowCache``.  Everything
else (CP core, fusion loop, models) is shared, so the ratio isolates this
PR's compile-path work.

Measurement methodology: each timed side runs in a *fresh subprocess*
(interleaved, minimum of N CPU-time samples per side).  The work is
deterministic pure python, so the minimum approximates the uncontended
cost; process isolation keeps one side's allocation history (the baseline
churns through an order of magnitude more objects) and transient
noisy-neighbor stalls on a shared box from skewing the other side.

The acceptance bar for the incremental pipeline is >= 8x on GPTN-2.7B
with >= 60% window reuse: round 1 (solve reuse + fast oracle) measured
~4.1x at ~16% reuse; round 2 (canonical fingerprints + period-aware
windows + bitset CP engine) must at least double that.
"""

import functools
import gc
import json
import time

from conftest import RESULTS_DIR, ab_subprocess, emit_record

from repro.gpusim.device import get_device
from repro.graph.models.zoo import load_model
from repro.opg import lcopg
from repro.opg.heuristics import Budgets
from repro.opg.problem import OpgConfig

COLD_MODELS = ["ResNet50", "ViT", "GPTN-S", "GPTN-2.7B"]
AB_MODEL = "GPTN-2.7B"
DEVICE = "OnePlus 12"

#: Samples per A/B side (interleaved I B I B ...; min is reported).
AB_SAMPLES = 2

SEED_WINDOW_LAYERS = 48


class SeedBudgets(Budgets):
    """Pre-PR budgets: recompute availability on every query (no memo)."""

    def available(self, layer):
        return max(0, min(self.capacity[layer], self.m_peak[layer]))

    def available_range(self, lo, hi):
        return [
            max(0, min(c, m))
            for c, m in zip(self.capacity[lo:hi], self.m_peak[lo:hi])
        ]


class SeedPartitionSolver(lcopg.LcOpgSolver):
    """Pre-PR window partition: fixed 48-layer grid (insertion-sensitive)."""

    def _windows(self, problem):
        windows, current = [], []
        window_end = SEED_WINDOW_LAYERS
        for w in sorted(problem.weights, key=lambda w: (w.consumer_layer, w.name)):
            while w.consumer_layer >= window_end:
                if current:
                    windows.append(current)
                    current = []
                window_end += SEED_WINDOW_LAYERS
            current.append(w)
        if current:
            windows.append(current)
        return windows


def _measure_side(side: str) -> None:
    """Child-process entry: compile GPTN-2.7B once on the given side and
    print a JSON record.  Runs with the collector quiesced; reports both
    wall and CPU time (equal when the box is quiet — the compile path is
    single-threaded)."""
    from repro.capacity.model import analytic_capacity_model
    from repro.fusion.adaptive import AdaptiveFusionPlanner

    if side == "baseline":
        from tests.oracles import (
            ColdWindowCache,
            edf_feasible_reference,
            prove_window_reference,
        )

        lcopg.Budgets = SeedBudgets
        lcopg.edf_feasible = edf_feasible_reference
        # The seed's prover also stopped at a 1 s wall clock.
        lcopg.prove_window = functools.partial(prove_window_reference, time_limit_s=1.0)
        lcopg.WindowCache = ColdWindowCache
        solver = SeedPartitionSolver(OpgConfig())
    else:
        solver = lcopg.LcOpgSolver(OpgConfig())

    from repro.graph.lowering import eliminate_layout_ops

    graph = eliminate_layout_ops(load_model(AB_MODEL))
    capacity = analytic_capacity_model(get_device(DEVICE))
    planner = AdaptiveFusionPlanner(solver, capacity)
    gc.collect()
    gc.disable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _, plan, report = planner.plan(graph, device_name=DEVICE)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    gc.enable()

    record = {
        "side": side,
        "wall_s": round(wall, 3),
        "cpu_s": round(cpu, 3),
        "status": plan.stats.solver_status,
    }
    if side == "incremental":
        cache = solver.window_cache
        record["window_reuse"] = {
            "windows_total": report.total_windows,
            "windows_reused": report.total_windows_reused,
            "reuse_rate": round(report.window_reuse_rate, 3),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_hit_rate": round(cache.hit_rate, 3),
        }
        record["phases"] = {
            "cp_solve_s": round(plan.stats.cp_solve_s, 3),
            "exact_prover_s": round(plan.stats.exact_prover_s, 3),
            "greedy_s": round(plan.stats.greedy_s, 3),
            "edf_calls": plan.stats.edf_calls,
        }
    emit_record(record)


def _incremental_ab():
    runs = {"incremental": [], "baseline": []}
    for _ in range(AB_SAMPLES):
        for side in ("incremental", "baseline"):
            runs[side].append(
                ab_subprocess("test_compile_latency", "_measure_side", side)
            )
    best_new = min(runs["incremental"], key=lambda r: r["cpu_s"])
    best_old = min(runs["baseline"], key=lambda r: r["cpu_s"])

    return {
        "model": AB_MODEL,
        "device": DEVICE,
        "opg_config": {"max_nodes_per_window": OpgConfig().max_nodes_per_window},
        "samples_per_side": AB_SAMPLES,
        "pre_pr_s": best_old["cpu_s"],
        "incremental_s": best_new["cpu_s"],
        "speedup": round(best_old["cpu_s"] / best_new["cpu_s"], 2),
        "wall": {
            "pre_pr_s": best_old["wall_s"],
            "incremental_s": best_new["wall_s"],
            "speedup": round(best_old["wall_s"] / best_new["wall_s"], 2),
        },
        "statuses": {
            "pre_pr": best_old["status"],
            "incremental": best_new["status"],
        },
        "window_reuse": best_new["window_reuse"],
        "phases_incremental": best_new["phases"],
    }


def _cold_compiles():
    from repro.core.flashmem import FlashMem, FlashMemConfig

    rows = []
    device = get_device(DEVICE)
    for model in COLD_MODELS:
        fm = FlashMem(FlashMemConfig())
        compiled = fm.compile(load_model(model), device)
        rows.append(
            {
                "model": model,
                "compile_s": round(compiled.compile_s, 3),
                "status": compiled.plan.stats.solver_status,
                "windows_reused": compiled.plan.stats.windows_reused
                if compiled.fusion_report is None
                else compiled.fusion_report.total_windows_reused,
            }
        )
    return rows


def _run_all():
    return {
        "cold_compile": _cold_compiles(),
        "incremental_ab": _incremental_ab(),
    }


def test_compile_latency(benchmark):
    result = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_compile.json").write_text(json.dumps(result, indent=2) + "\n")

    for row in result["cold_compile"]:
        print(
            f"cold {row['model']:12s} {row['compile_s']:7.2f}s "
            f"{row['status']:9s} reused={row['windows_reused']}"
        )
    ab = result["incremental_ab"]
    print(
        f"\n{ab['model']} A/B: pre-PR {ab['pre_pr_s']:.2f}s -> "
        f"incremental {ab['incremental_s']:.2f}s = {ab['speedup']:.2f}x cpu "
        f"({ab['wall']['speedup']:.2f}x wall; reuse "
        f"{ab['window_reuse']['windows_reused']}/"
        f"{ab['window_reuse']['windows_total']} windows, "
        f"cache hit rate {ab['window_reuse']['cache_hit_rate']:.0%})"
    )

    # The acceptance bar: >= 8x compile speedup on GPTN-2.7B (round 1's
    # ~4.1x at least doubled), >= 60% window reuse across the fusion loop,
    # and the incremental plan no worse in status.
    assert ab["speedup"] >= 8.0
    assert ab["window_reuse"]["reuse_rate"] >= 0.60
    assert ab["statuses"]["incremental"] in ("OPTIMAL", ab["statuses"]["pre_pr"])

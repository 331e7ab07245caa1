"""Bench: CP solver throughput — bitset core vs the seed solver.

Head-to-head comparisons under identical node budgets (the seed oracle
also keeps its own 10 s default deadline; throughput is a rate, so which
limit stops it does not skew nodes/sec), written to
``results/BENCH_solver.json`` so future PRs can track the trajectory:

- **microbench** — a synthetic OPG-window workload
  (``tests/opg/window_models.py``, shaped exactly like
  ``LcOpgSolver._cp_window`` models) solved by the production bitset
  solver (``trail``) and by the seed ``NaiveCpSolver`` oracle (``naive``).
  Headline ``speedup_nodes_per_sec`` is the per-window geomean of their
  nodes/sec ratio.
- **table4** — the paper's solver-scaling model set run through the full
  LC-OPG pipeline, once as shipped and once with the oracle swapped in for
  ``repro.opg.lcopg.CpSolver``; asserts no model regresses from OPTIMAL to
  FEASIBLE under the production core.

Acceptance bar: ≥ 5× nodes/sec vs the seed solver.
"""

import json
from typing import Dict, List, Optional, Tuple

from conftest import RESULTS_DIR

from repro.experiments import table4
from repro.opg import lcopg
from repro.opg.cpsat.search import CpSolver
from tests.opg.window_models import build_window_model
from tests.oracles import NaiveCpSolver

#: The benchmark workload: (n_weights, n_layers, per-layer capacity, seed).
#: Sized like the Table 4 models' rolling windows (small, mid, large), plus
#: two production-scale entries: the period-aware window partition makes a
#: transformer window span two block periods, i.e. 32+ weights, so the
#: 32/48-weight rows are the shapes the compile path actually solves.
WORKLOAD: List[Tuple[int, int, int, int]] = [
    (6, 10, 6, 11),
    (8, 14, 6, 23),
    (12, 20, 8, 37),
    (16, 26, 9, 53),
    (20, 32, 10, 71),
    (32, 48, 10, 91),
    (48, 64, 12, 101),
]

SOLVERS = {"trail": CpSolver, "naive": NaiveCpSolver}


def measure_solver(
    solver_name: str,
    *,
    max_nodes: int = 60_000,
    workload: Optional[List[Tuple[int, int, int, int]]] = None,
) -> Dict[str, object]:
    """Solve the workload with one solver ("trail" or "naive"); aggregate
    throughput stats."""
    factory = SOLVERS[solver_name]
    windows = []
    total_nodes = 0
    total_wall = 0.0
    optimal = 0
    for n_weights, n_layers, cap, seed in workload or WORKLOAD:
        model = build_window_model(n_weights, n_layers, cap, seed)
        solution = factory(max_nodes=max_nodes).solve(model)
        sstats = solution.stats
        total_nodes += sstats.nodes
        total_wall += sstats.wall_time_s
        if solution.status.value == "OPTIMAL":
            optimal += 1
        windows.append(
            {
                "n_weights": n_weights,
                "n_layers": n_layers,
                "status": solution.status.value,
                "objective": solution.objective,
                **sstats.as_dict(),
            }
        )
    return {
        "solver": solver_name,
        "windows": windows,
        "total_nodes": total_nodes,
        "total_wall_s": round(total_wall, 6),
        "nodes_per_sec": round(total_nodes / total_wall, 1) if total_wall > 0 else 0.0,
        "windows_to_optimal": optimal,
    }


def run_throughput_benchmark(*, max_nodes: int = 60_000) -> Dict[str, object]:
    """Production solver vs the seed solver under identical budgets.

    The headline ``speedup_nodes_per_sec`` is the geometric mean of the
    per-window nodes/sec ratios — each window counts equally, so one
    deep-propagation window cannot dominate the summary the way a
    wall-time-weighted aggregate would.  ``speedup_aggregate`` (total nodes
    / total wall) is reported alongside.
    """
    trail = measure_solver("trail", max_nodes=max_nodes)
    naive = measure_solver("naive", max_nodes=max_nodes)
    per_window = []
    product = 1.0
    for t, n in zip(trail["windows"], naive["windows"]):
        ratio = t["nodes_per_sec"] / n["nodes_per_sec"] if n["nodes_per_sec"] else 0.0
        per_window.append(
            {
                "n_weights": t["n_weights"],
                "trail_nodes_per_sec": t["nodes_per_sec"],
                "naive_nodes_per_sec": n["nodes_per_sec"],
                "speedup": round(ratio, 2),
            }
        )
        product *= max(ratio, 1e-9)
    geomean = product ** (1.0 / len(per_window)) if per_window else 0.0
    naive_nps = naive["nodes_per_sec"] or 1.0
    return {
        "workload": [
            {"n_weights": w, "n_layers": l, "cap": c, "seed": s} for w, l, c, s in WORKLOAD
        ],
        "budgets": {"max_nodes": max_nodes},
        "trail": trail,
        "naive": naive,
        "per_window_speedup": per_window,
        "speedup_nodes_per_sec": round(geomean, 2),
        "speedup_aggregate": round(trail["nodes_per_sec"] / naive_nps, 2),
    }


def _table4_comparison(monkeypatch):
    rows = {}
    for solver, factory in SOLVERS.items():
        with monkeypatch.context() as patch:
            patch.setattr(lcopg, "CpSolver", factory)
            result = table4.run()
        rows[solver] = [
            {
                "model": r.model,
                "status": r.status,
                "solve_s": round(r.solve_s, 3),
                "nodes": r.nodes,
                "nodes_per_sec": round(r.nodes_per_sec, 1),
            }
            for r in result.rows
        ]
    return {
        "max_nodes_per_window": table4.MAX_NODES_PER_WINDOW,
        "trail": rows["trail"],
        "naive": rows["naive"],
    }


def test_solver_throughput(benchmark, monkeypatch):
    def run_all():
        return {
            "microbench": run_throughput_benchmark(max_nodes=60_000),
            "table4_workload": _table4_comparison(monkeypatch),
        }

    result = benchmark.pedantic(run_all, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_solver.json").write_text(json.dumps(result, indent=2) + "\n")

    micro = result["microbench"]
    trail, naive = micro["trail"], micro["naive"]
    print(
        f"\nmicrobench bitset: {trail['nodes_per_sec']:.0f} nodes/s, "
        f"{trail['windows_to_optimal']}/{len(trail['windows'])} windows OPTIMAL\n"
        f"microbench naive:  {naive['nodes_per_sec']:.0f} nodes/s, "
        f"{naive['windows_to_optimal']}/{len(naive['windows'])} windows OPTIMAL\n"
        f"speedup vs naive: {micro['speedup_nodes_per_sec']:.1f}x geomean "
        f"({micro['speedup_aggregate']:.1f}x aggregate)"
    )

    # Acceptance bars: >= 5x search throughput vs the seed solver, and the
    # production solver proves at least as many windows optimal as it.
    assert micro["speedup_nodes_per_sec"] >= 5.0
    assert trail["windows_to_optimal"] >= naive["windows_to_optimal"]

    # Table 4 workload: same budgets, no OPTIMAL -> FEASIBLE regression.
    t4 = result["table4_workload"]
    naive_status = {r["model"]: r["status"] for r in t4["naive"]}
    for row in t4["trail"]:
        print(f"table4 {row['model']:12s} trail={row['status']:9s} "
              f"naive={naive_status[row['model']]:9s} {row['nodes_per_sec']:.0f} nodes/s")
        if naive_status[row["model"]] == "OPTIMAL":
            assert row["status"] == "OPTIMAL", (
                f"{row['model']} regressed from OPTIMAL to {row['status']}"
            )
        assert row["status"] in ("OPTIMAL", "FEASIBLE")

"""Tier-1 perf guardrail for the trail-based CP solver.

Asserts fixed, seeded OPG windows solve to OPTIMAL within a *node* budget
(~8× the current need), the solver's only limit — catching
search/propagation regressions (more nodes to optimality)
deterministically, without wall-clock flakiness.

If this fails after a solver change, the change made the search weaker:
compare ``results/BENCH_solver.json`` before/after via
``benchmarks/test_solver_throughput.py``.
"""

from repro.opg.cpsat.model import SolveStatus
from repro.opg.cpsat.search import CpSolver
from tests.opg.window_models import build_window_model
from tests.oracles import validate_assignment

#: (n_weights, n_layers, cap, seed, node_budget, known_optimal_objective).
#: Current trail solver needs ~1.2k and ~6.6k nodes respectively.
GUARDRAIL_WINDOWS = [
    (6, 10, 6, 11, 10_000, 12),
    (8, 14, 6, 23, 50_000, 12),  # the mid-size window
]


def test_fixed_windows_reach_optimal_within_node_budget():
    for n_weights, n_layers, cap, seed, node_budget, optimal in GUARDRAIL_WINDOWS:
        model = build_window_model(n_weights, n_layers, cap, seed)
        sol = CpSolver(max_nodes=node_budget).solve(model)
        label = f"window({n_weights}w,{n_layers}l,seed={seed})"
        assert sol.status is SolveStatus.OPTIMAL, (
            f"{label}: {sol.status.value} after {sol.nodes_explored} nodes "
            f"(budget {node_budget}) — solver regressed"
        )
        assert sol.objective == optimal, f"{label}: objective {sol.objective} != {optimal}"
        assert validate_assignment(model, sol.values) == []
        assert sol.nodes_explored < node_budget


def test_propagation_work_stays_incremental():
    # The whole point of the watcher bitsets: per-node constraint
    # evaluations must stay far below models' full constraint count.  The 8-weight
    # window has ~60 constraints; a full-sweep engine re-evaluates all of
    # them (several passes) per node, the incremental one only a fraction.
    model = build_window_model(8, 14, 6, 23)
    n_constraints = model.num_constraints
    sol = CpSolver(max_nodes=50_000).solve(model)
    evals_per_node = (sol.stats.linear_props + sol.stats.implication_props) / sol.stats.nodes
    assert evals_per_node < n_constraints, (
        f"{evals_per_node:.1f} constraint evaluations/node vs {n_constraints} constraints: "
        "propagation is sweeping, not incremental"
    )

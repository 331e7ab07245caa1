"""Bench: regenerate Table 4 — LC-OPG solver runtime breakdown.

Bounds each rolling window by ``table4.MAX_NODES_PER_WINDOW`` branch-and-
bound nodes instead of the paper's 150 s workstation budget, so the
statuses do not depend on the machine.
"""

from conftest import report, run_once

from repro.experiments import table4


def test_table4_solver_runtime(benchmark):
    result = run_once(benchmark, table4.run)
    report("table4", result.render())
    assert len(result.rows) == 6
    for row in result.rows:
        assert row.status in ("OPTIMAL", "FEASIBLE")
    # Bigger graphs take at least as much processing (non-strict: the budget caps solve).
    by_model = {r.model: r for r in result.rows}
    assert by_model["Llama2-70B"].layers > by_model["GPTN-S"].layers

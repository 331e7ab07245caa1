"""Plan byte-identity with window reuse on and off.

Window-reuse patching is a *transparent* optimisation: the compiled plan
must be byte-identical to the reuse-off reference, a solver whose window
cache never hits (``tests/oracles``).  This test runs both end-to-end
through ``LcOpgSolver`` on a real graph and compares every plan against
the reuse-off one.
"""

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig
from tests.oracles import cold_solver

FAST = OpgConfig(max_nodes_per_window=300, chunk_bytes=8 * 1024)


def _graph():
    b = GraphBuilder("toggle-matrix")
    b.embedding(16, 500, 128)
    for _ in range(4):
        b.transformer_block(16, 128, 4)
    return b.finish()


def _solve(reuse):
    solver = LcOpgSolver(FAST) if reuse else cold_solver(FAST)
    graph = _graph()
    capacity = analytic_capacity_model(oneplus_12())
    first = solver.solve(graph, capacity, device_name="OnePlus 12")
    if not reuse:
        return first
    # With reuse on, the replayed second solve is the interesting plan: it
    # must match the reference even when served from the window cache.
    replay = solver.solve(graph, capacity, device_name="OnePlus 12")
    assert replay.stats.windows_reused == replay.stats.windows > 0
    return replay


@pytest.fixture(scope="module")
def reference():
    return _solve(False)


@pytest.mark.parametrize("reuse", [False, True], ids=["reuse0", "reuse1"])
def test_plan_identical_across_toggles(reuse, reference):
    plan = _solve(reuse)
    assert plan.schedules == reference.schedules
    assert plan.stats.solver_status == reference.stats.solver_status
    assert plan.stats.soft_threshold_rounds == reference.stats.soft_threshold_rounds

"""Property-based tests over randomly generated model graphs (hypothesis).

End-to-end invariants of the planning + execution pipeline:

- every LC-OPG plan validates against its OPG problem;
- executor memory accounting balances (timeline starts and ends at zero,
  never negative, peak >= average);
- FlashMem's integrated latency is bounded below by both the pure compute
  time and the pure streamed-IO time (it cannot beat physics);
- fusion preserves FLOPs/params on arbitrary graphs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity.model import analytic_capacity_model
from repro.fusion.fuser import fuse_graph
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig, build_problem
from repro.opg.validate import validate_plan
from repro.runtime.executor import FlashMemExecutor

_DEVICE = oneplus_12()
_CAPACITY = analytic_capacity_model(_DEVICE)
_CFG = OpgConfig(max_nodes_per_window=100, chunk_bytes=8 * 1024)


@st.composite
def random_graphs(draw):
    """Small random DNNs mixing transformer, conv, and elementwise blocks."""
    b = GraphBuilder("hypo", fine=draw(st.booleans()))
    dim = draw(st.sampled_from([32, 64, 128]))
    seq = draw(st.sampled_from([8, 16]))
    b.embedding(seq, 200, dim)
    n_blocks = draw(st.integers(1, 4))
    for _ in range(n_blocks):
        kind = draw(st.sampled_from(["attn", "mlp", "conv", "elem"]))
        if kind == "attn":
            b.attention_block(seq, dim, 4)
        elif kind == "mlp":
            b.mlp_block(seq, dim, dim * draw(st.sampled_from([2, 4])))
        elif kind == "conv":
            side = draw(st.sampled_from([8, 16]))
            b.reshape((seq, dim), (dim, side, side))
            b.conv(side, side, dim, dim, 3)
            b.activation((dim, side, side))
            b.reshape((dim, side, side), (seq, dim))
        else:
            b.gelu((seq, dim))
            b.layernorm((seq, dim))
    b.linear(seq, dim, draw(st.sampled_from([64, 200])))
    return b.finish()


@given(random_graphs())
@settings(max_examples=25, deadline=None)
def test_plans_always_validate(graph):
    plan = LcOpgSolver(_CFG).solve(graph, _CAPACITY)
    problem = build_problem(graph, _CAPACITY, _CFG)
    assert validate_plan(plan, problem) == []


@given(random_graphs())
@settings(max_examples=15, deadline=None)
def test_executor_memory_balances(graph):
    plan = LcOpgSolver(_CFG).solve(graph, _CAPACITY)
    result = FlashMemExecutor(_DEVICE).run(graph, plan)
    totals = result.memory.totals
    assert totals[0] == 0
    assert totals[-1] == 0
    assert (totals >= 0).all()
    assert result.peak_memory_bytes >= result.avg_memory_bytes > 0


@given(random_graphs())
@settings(max_examples=15, deadline=None)
def test_latency_physical_lower_bounds(graph):
    plan = LcOpgSolver(_CFG).solve(graph, _CAPACITY)
    result = FlashMemExecutor(_DEVICE).run(graph, plan)
    compute_floor = sum(_DEVICE.compute_time_ms(n.flops) for n in graph.nodes())
    io_floor = graph.total_weight_bytes / _DEVICE.disk_bw
    assert result.latency_ms >= compute_floor
    assert result.latency_ms >= io_floor
    assert result.latency_ms >= _DEVICE.gpu_setup_ms


@given(random_graphs())
@settings(max_examples=25, deadline=None)
def test_fusion_preserves_semantics(graph):
    fused = fuse_graph(graph)
    assert fused.total_flops == graph.total_flops
    assert fused.total_params == graph.total_params
    assert len(fused) <= len(graph)
    for node in fused.nodes():
        for parent in node.inputs:
            assert parent.index < node.index


@given(random_graphs(), st.floats(0.0, 1.0))
@settings(max_examples=15, deadline=None)
def test_preload_ratio_bounds(graph, target):
    plan = LcOpgSolver(_CFG).solve(graph, _CAPACITY, target_preload_ratio=target)
    assert 0.0 <= plan.preload_ratio <= 1.0
    # Requested preload is a floor (forced/failed streams only add to it),
    # modulo one weight of granularity.
    if plan.total_bytes:
        largest = max(s.nbytes for s in plan.schedules.values())
        assert plan.preload_bytes >= target * plan.total_bytes - largest

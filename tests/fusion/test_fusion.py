"""Tests for the fusion pass, penalty scoring, and the adaptive protocol."""

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.fusion.adaptive import AdaptiveFusionPlanner, apply_splits
from repro.fusion.fuser import (
    fuse_graph,
    fused_members,
    fusion_stats,
    is_fused,
    make_fused_spec,
    unfuse_node,
)
from repro.fusion.penalty import fusion_penalties, plan_pressure
from repro.graph.builder import GraphBuilder
from repro.graph.ops import OpClass, OpKind, elementwise_spec, matmul_spec, softmax_spec
from repro.gpusim.device import oneplus_12
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig


@pytest.fixture(scope="module")
def capacity():
    return analytic_capacity_model(oneplus_12())


def _transformer(blocks=2, dim=128, seq=16):
    b = GraphBuilder("t")
    b.embedding(seq, 500, dim)
    for _ in range(blocks):
        b.transformer_block(seq, dim, 4)
    return b.finish()


class TestFusedSpec:
    def test_combines_flops_and_weights(self):
        mm = matmul_spec("mm", 8, 16, 16)
        gelu = elementwise_spec("g", OpKind.GELU, (8, 16), flops_per_elem=8)
        fused = make_fused_spec("mm+g", [mm, gelu])
        assert fused.flops == mm.flops + gelu.flops
        assert fused.weight_bytes == mm.weight_bytes
        assert is_fused(fused)
        assert [m.name for m in fused_members(fused)] == ["mm", "g"]

    def test_anchor_sets_kind(self):
        mm = matmul_spec("mm", 8, 16, 16)
        gelu = elementwise_spec("g", OpKind.GELU, (8, 16))
        assert make_fused_spec("f", [mm, gelu]).kind is OpKind.MATMUL

    def test_boundary_tensors_only(self):
        mm = matmul_spec("mm", 8, 16, 32)
        add = elementwise_spec("a", OpKind.ADD, (8, 32))
        fused = make_fused_spec("f", [mm, add])
        assert fused.input_specs == mm.input_specs
        assert fused.output_spec == add.output_spec

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            make_fused_spec("f", [])

    def test_non_fused_members_is_self(self):
        mm = matmul_spec("mm", 8, 16, 16)
        assert fused_members(mm) == [mm]


class TestFuseGraph:
    def test_preserves_compute_and_params(self):
        g = _transformer()
        fused = fuse_graph(g)
        assert fused.total_flops == g.total_flops
        assert fused.total_params == g.total_params

    def test_reduces_node_count(self):
        g = _transformer()
        assert len(fuse_graph(g)) < len(g)

    def test_hierarchical_never_fused(self):
        fused = fuse_graph(_transformer())
        for node in fused.nodes():
            if is_fused(node.spec):
                members = fused_members(node.spec)
                assert all(m.op_class is not OpClass.HIERARCHICAL for m in members)

    def test_acyclic_after_fusion(self):
        fused = fuse_graph(_transformer(blocks=3))
        for node in fused.nodes():
            for parent in node.inputs:
                assert parent.index < node.index

    def test_max_group_respected(self):
        fused = fuse_graph(_transformer(), max_group=2)
        for node in fused.nodes():
            assert len(fused_members(node.spec)) <= 2

    def test_stats(self):
        fused = fuse_graph(_transformer())
        stats = fusion_stats(fused)
        assert stats["fused_nodes"] > 0
        assert stats["absorbed_members"] >= stats["fused_nodes"]


class TestUnfuse:
    def test_two_member_split(self):
        mm = matmul_spec("mm", 8, 16, 16)
        gelu = elementwise_spec("g", OpKind.GELU, (8, 16))
        parts = unfuse_node(make_fused_spec("f", [mm, gelu]))
        assert [p.name for p in parts] == ["mm", "g"]

    def test_three_member_split_keeps_head_fused(self):
        mm = matmul_spec("mm", 8, 16, 16)
        add = elementwise_spec("a", OpKind.ADD, (8, 16))
        gelu = elementwise_spec("g", OpKind.GELU, (8, 16))
        head, tail = unfuse_node(make_fused_spec("f", [mm, add, gelu]))
        assert is_fused(head)
        assert [m.name for m in fused_members(head)] == ["mm", "a"]
        assert tail.name == "g"

    def test_unfused_spec_passthrough(self):
        mm = matmul_spec("mm", 8, 16, 16)
        assert unfuse_node(mm) == [mm]

    def test_split_conserves_flops_weights(self):
        mm = matmul_spec("mm", 64, 256, 256, bias=True)
        gelu = elementwise_spec("g", OpKind.GELU, (64, 256), flops_per_elem=8)
        fused = make_fused_spec("f", [mm, gelu])
        parts = unfuse_node(fused)
        assert sum(p.flops for p in parts) == fused.flops
        assert sum(p.weight_bytes for p in parts) == fused.weight_bytes


class TestSplitFeasibility:
    def test_reusable_elemental_split_gains_capacity(self, capacity):
        """§4.3's gain condition holds for a MatMul+GELU fusion, read off one
        batched query as the adaptive loop reads it."""
        mm = matmul_spec("mm", 128, 1024, 1024)
        gelu = elementwise_spec("g", OpKind.GELU, (128, 1024), flops_per_elem=8)
        fused = make_fused_spec("f", [mm, gelu])
        head, tail = unfuse_node(fused)
        c_fused, c_head, c_tail = capacity.capacity_bytes_batch([fused, head, tail])
        assert c_head + c_tail >= 1.25 * c_fused


class TestApplySplits:
    def test_replaces_node_with_chain(self, capacity):
        g = fuse_graph(_transformer())
        target = next(n for n in g.nodes() if is_fused(n.spec))
        parts = unfuse_node(target.spec)
        g2 = apply_splits(g, {target.name: (parts[0], parts[1])})
        assert len(g2) == len(g) + 1
        assert g2.total_flops == g.total_flops
        for node in g2.nodes():
            for parent in node.inputs:
                assert parent.index < node.index


class TestAdaptivePlanner:
    def test_plan_pressure_in_unit_range(self, capacity):
        g = _transformer()
        cfg = OpgConfig(max_nodes_per_window=200, chunk_bytes=8 * 1024)
        plan = LcOpgSolver(cfg).solve(g, capacity)
        pressure = plan_pressure(plan, g)
        assert 0.0 <= pressure <= 1.0

    def test_penalties_only_for_fused(self, capacity):
        g = fuse_graph(_transformer())
        cfg = OpgConfig(max_nodes_per_window=200, chunk_bytes=8 * 1024)
        plan = LcOpgSolver(cfg).solve(g, capacity)
        for p in fusion_penalties(g, plan):
            assert is_fused(g.node(p.node).spec)
            assert p.score > 0

    def test_adaptive_never_worse_than_aggressive(self, capacity):
        g = _transformer(blocks=3)
        cfg = OpgConfig(max_nodes_per_window=200, chunk_bytes=8 * 1024)
        solver = LcOpgSolver(cfg)
        aggressive = fuse_graph(g)
        base_plan = solver.solve(aggressive, capacity)
        planner = AdaptiveFusionPlanner(solver, capacity, max_iterations=3)
        _, plan, report = planner.plan(g)
        assert plan_pressure(plan, aggressive) <= plan_pressure(base_plan, aggressive) + 1e-9
        assert report.pressure_history

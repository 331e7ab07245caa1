"""Tests for kernel rewriting: templates, programs, and bundle generation."""

import pickle
from types import SimpleNamespace

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.core.flashmem import FlashMem
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.gpusim.kernels import BRANCH_DIVERGENCE_PENALTY, KernelCostModel
from repro.kernels.codegen import ExecStyle, KernelBundle
from repro.kernels.rewriter import KernelRewriter, transform_kernel_source
from repro.kernels.templating import Template
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig
from repro.runtime.executor import FlashMemExecutor
from tests.oracles import kernel_program_time_ms


@pytest.fixture(scope="module")
def device():
    return oneplus_12()


def _small_transformer():
    b = GraphBuilder("t")
    b.embedding(16, 500, 128)
    for _ in range(2):
        b.transformer_block(16, 128, 4)
    return b.finish()


@pytest.fixture(scope="module")
def compiled():
    """A small transformer plus its plan and bundle."""
    graph = _small_transformer()
    capacity = analytic_capacity_model(oneplus_12())
    cfg = OpgConfig(max_nodes_per_window=200, chunk_bytes=8 * 1024)
    plan = LcOpgSolver(cfg).solve(graph, capacity)
    bundle = KernelRewriter().rewrite_graph(graph, plan)
    return graph, plan, bundle


class TestBundle:
    def test_program_per_layer(self, compiled):
        graph, _, bundle = compiled
        assert len(bundle) == len(graph)

    def test_embedded_bytes_match_streamed(self, compiled):
        _, plan, bundle = compiled
        streamed = sum(
            s.nbytes for s in plan.schedules.values()
            if not s.preloaded and not s.dedicated_transform
        )
        assert bundle.total_embedded_bytes() == streamed

    def test_layers_with_segments_are_pipelined(self, compiled):
        graph, plan, bundle = compiled
        for idx, program in bundle.programs.items():
            if program.embedded_load_bytes > 0:
                assert program.style is ExecStyle.PIPELINED
            else:
                assert program.style is ExecStyle.RESIDENT

    def test_styles_summary(self, compiled):
        _, _, bundle = compiled
        styles = bundle.styles()
        assert styles.get(ExecStyle.PIPELINED, 0) > 0

    def test_resident_rewriter_ignores_plan(self, compiled):
        graph, plan, _ = compiled
        bundle = KernelRewriter(style=ExecStyle.RESIDENT).rewrite_graph(graph, plan)
        assert bundle.total_embedded_bytes() == 0


class TestGeneratedSource:
    def test_pipelined_source_structure(self, compiled):
        _, _, bundle = compiled
        program = next(
            p for p in bundle.programs.values()
            if p.style is ExecStyle.PIPELINED and "fma" in p.source
        )
        # Figure 5(b) structure: prologue prefetch, commit, next prefetch,
        # epilogue — and no conditional branches in the loop body.
        assert "Prologue" in program.source
        assert "Epilogue" in program.source
        assert "staged_weights" in program.source
        body = program.source.split("for (int t = 0")[1]
        assert "if (" not in body.split("Epilogue")[0]

    def test_branchy_source_has_divergent_branch(self, compiled):
        graph, plan, _ = compiled
        bundle = KernelRewriter(style=ExecStyle.BRANCHY).rewrite_graph(graph, plan)
        branchy = [p for p in bundle.programs.values() if p.style is ExecStyle.BRANCHY]
        assert branchy
        assert any("DIVERGENT" in p.source for p in branchy)

    def test_kernel_names_sanitized(self, compiled):
        _, _, bundle = compiled
        for program in bundle.programs.values():
            assert program.name.startswith("k_")
            assert all(c.isalnum() or c == "_" for c in program.name)

    def test_transform_kernel_source(self):
        src = transform_kernel_source("weird/name.w", 1 << 20)
        assert "__kernel" in src
        assert "1048576" in src


class TestSourceOnDemand:
    def test_rewrite_renders_no_template_until_read(self, compiled, monkeypatch):
        graph, plan, _ = compiled
        rendered = []
        render = Template.render
        monkeypatch.setattr(
            Template, "render", lambda self, **ctx: rendered.append(1) or render(self, **ctx)
        )
        bundle = KernelRewriter().rewrite_graph(graph, plan)
        assert rendered == []
        program = next(p for p in bundle.programs.values() if p.style is ExecStyle.PIPELINED)
        text = program.source
        assert "staged_weights" in text and len(rendered) == 1
        assert program.source is text  # kept, not rendered again
        assert len(rendered) == 1

    def test_pickled_before_read_renders_the_fresh_text(self, device):
        graph = _small_transformer()
        capacity = analytic_capacity_model(device)
        compiled = FlashMem().compile(graph, device, capacity=capacity)
        programs = list(compiled.bundle.programs.values())
        assert not any("source" in vars(p) for p in programs)
        restored = pickle.loads(pickle.dumps(compiled))
        fresh = KernelRewriter().rewrite_graph(compiled.graph, compiled.plan)
        assert [p.source for p in restored.bundle.programs.values()] == [
            p.source for p in fresh.programs.values()
        ]
        assert restored.bundle.programs == compiled.bundle.programs
        assert any(p.style is ExecStyle.PIPELINED for p in programs)


def _priced(device, *programs):
    """Each program's latency as the FlashMem executor prices it (its
    pricing-table row), checked bitwise against the scalar reference."""
    bundle = KernelBundle("t", dict(enumerate(programs)))
    nodes = [SimpleNamespace(index=i) for i in range(len(programs))]
    times = FlashMemExecutor(device)._durations(bundle, nodes)
    assert times == [kernel_program_time_ms(p, device) for p in programs]
    return times


class TestProgramCosting:
    def test_resident_matches_base_cost(self, device, compiled):
        graph, _, _ = compiled
        node = next(n for n in graph.nodes() if n.spec.flops > 0)
        program = KernelRewriter(style=ExecStyle.RESIDENT).rewrite_node(node, 0)
        assert _priced(device, program) == [KernelCostModel(device).base_time_ms(node.spec)]

    def test_pipelined_cheaper_than_branchy(self, device, compiled):
        graph, _, _ = compiled
        node = next(n for n in graph.nodes() if n.spec.weights and n.spec.flops > 0)
        nbytes = 512 * 1024
        pipelined = KernelRewriter(style=ExecStyle.PIPELINED).rewrite_node(node, nbytes)
        branchy = KernelRewriter(style=ExecStyle.BRANCHY).rewrite_node(node, nbytes)
        pipelined_ms, branchy_ms = _priced(device, pipelined, branchy)
        assert branchy_ms > pipelined_ms
        assert branchy_ms == pytest.approx(pipelined_ms * (1 + BRANCH_DIVERGENCE_PENALTY))

    @pytest.mark.parametrize("style", [ExecStyle.PIPELINED, ExecStyle.BRANCHY])
    def test_bundle_rows_price_like_each_program(self, device, compiled, style):
        """A planned bundle's table rows (embedded loads, divergence) price
        every program as the scalar reference does."""
        graph, plan, _ = compiled
        bundle = KernelRewriter(style=style).rewrite_graph(graph, plan)
        assert bundle.total_embedded_bytes() > 0
        _priced(device, *bundle.programs.values())

    def test_embedded_load_costs_time(self, device, compiled):
        graph, _, _ = compiled
        node = next(n for n in graph.nodes() if n.spec.flops > 0)
        rewriter = KernelRewriter()
        free = rewriter.rewrite_node(node, 0)
        loaded = rewriter.rewrite_node(node, 4 << 20)
        free_ms, loaded_ms = _priced(device, free, loaded)
        assert loaded_ms > free_ms

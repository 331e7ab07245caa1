"""Unit tests for the graph DAG (repro.graph.dag)."""

import pytest

from repro.graph.dag import Graph, GraphError
from repro.graph.lowering import eliminate_layout_ops
from repro.graph.models.zoo import EVALUATED_MODELS, load_decode_model, load_model
from repro.graph.ops import OpKind, elementwise_spec, matmul_spec


def _chain(n: int) -> Graph:
    g = Graph("chain")
    prev = None
    for i in range(n):
        node = g.add(matmul_spec(f"mm{i}", 4, 8, 8), inputs=[prev] if prev else [])
        prev = node
    return g


class TestGraphBuild:
    def test_add_and_len(self):
        g = _chain(3)
        assert len(g) == 3

    def test_duplicate_name_rejected(self):
        g = Graph("g")
        g.add(matmul_spec("a", 2, 2, 2))
        with pytest.raises(GraphError):
            g.add(matmul_spec("a", 2, 2, 2))

    def test_foreign_input_rejected(self):
        g1, g2 = Graph("a"), Graph("b")
        n = g1.add(matmul_spec("x", 2, 2, 2))
        with pytest.raises(GraphError):
            g2.add(matmul_spec("y", 2, 2, 2), inputs=[n])

    def test_add_after_freeze_rejected(self):
        g = _chain(2).freeze()
        with pytest.raises(GraphError):
            g.add(matmul_spec("late", 2, 2, 2))

    def test_contains_and_node_lookup(self):
        g = _chain(2)
        assert "mm0" in g
        assert g.node("mm1").name == "mm1"
        with pytest.raises(GraphError):
            g.node("nope")


class TestFreezeAndOrder:
    def test_chain_order_preserved(self):
        g = _chain(5).freeze()
        assert [n.name for n in g.nodes()] == [f"mm{i}" for i in range(5)]
        assert [n.index for n in g.nodes()] == list(range(5))

    def test_diamond_topological(self):
        g = Graph("d")
        a = g.add(matmul_spec("a", 2, 2, 2))
        b = g.add(matmul_spec("b", 2, 2, 2), inputs=[a])
        c = g.add(matmul_spec("c", 2, 2, 2), inputs=[a])
        d = g.add(elementwise_spec("d", OpKind.ADD, (2, 2), n_inputs=2), inputs=[b, c])
        g.freeze()
        order = {n.name: n.index for n in g.nodes()}
        assert order["a"] < order["b"] < order["d"]
        assert order["a"] < order["c"] < order["d"]

    def test_cycle_detected(self):
        g = Graph("cyc")
        a = g.add(matmul_spec("a", 2, 2, 2))
        b = g.add(matmul_spec("b", 2, 2, 2), inputs=[a])
        # Manually wire a back-edge to create a cycle.
        a.inputs.append(b)
        b.outputs.append(a)
        with pytest.raises(GraphError):
            g.freeze()

    def test_nodes_requires_freeze(self):
        g = _chain(2)
        with pytest.raises(GraphError):
            g.nodes()

    def test_freeze_idempotent(self):
        g = _chain(2)
        assert g.freeze() is g.freeze()


class TestAggregates:
    def test_total_flops_and_macs(self):
        g = _chain(3).freeze()
        assert g.total_flops == 3 * 2 * 4 * 8 * 8
        assert g.total_macs == g.total_flops // 2

    def test_total_params_counts_all_weights(self):
        g = _chain(2).freeze()
        # Each matmul carries an (8, 8) weight (no bias by default).
        assert g.total_params == 2 * 64

    def test_total_params_includes_bias(self):
        g = Graph("b")
        g.add(matmul_spec("mm", 4, 8, 8, bias=True))
        g.freeze()
        assert g.total_params == 64 + 8

    def test_weight_first_use_matches_owner(self):
        g = _chain(3).freeze()
        first_use = g.weight_first_use()
        assert first_use["mm0.w"] == 0
        assert first_use["mm2.w"] == 2

    def test_weights_in_execution_order(self):
        g = _chain(3).freeze()
        names = [w.name for w, _ in g.weights()]
        assert names.index("mm0.w") < names.index("mm1.w") < names.index("mm2.w")

    def test_op_histogram(self):
        g = Graph("h")
        a = g.add(matmul_spec("a", 2, 2, 2))
        g.add(elementwise_spec("e", OpKind.ADD, (2, 2)), inputs=[a])
        hist = g.op_histogram()
        assert hist[OpKind.MATMUL] == 1
        assert hist[OpKind.ADD] == 1


class TestActivationAccounting:
    def test_activation_bytes_positive(self):
        g = _chain(3).freeze()
        assert g.activation_bytes_at(1) > 0

    def test_residual_increases_liveness(self):
        # a -> b -> c, with a also feeding d after c: a's output stays live at c.
        g = Graph("res")
        a = g.add(matmul_spec("a", 2, 2, 2))
        b = g.add(matmul_spec("b", 2, 2, 2), inputs=[a])
        c = g.add(matmul_spec("c", 2, 2, 2), inputs=[b])
        d = g.add(elementwise_spec("d", OpKind.ADD, (2, 2), n_inputs=2), inputs=[c, a])
        g.freeze()
        plain = Graph("plain")
        pa = plain.add(matmul_spec("a", 2, 2, 2))
        pb = plain.add(matmul_spec("b", 2, 2, 2), inputs=[pa])
        pc = plain.add(matmul_spec("c", 2, 2, 2), inputs=[pb])
        plain.freeze()
        assert g.activation_bytes_at(2) > plain.activation_bytes_at(2)

    def test_out_of_range_index(self):
        g = _chain(2).freeze()
        with pytest.raises(GraphError):
            g.activation_bytes_at(5)

    def test_peak_at_least_single_layer(self):
        g = _chain(4).freeze()
        assert g.peak_activation_bytes() >= g.activation_bytes_at(0)

    def test_empty_graph_peak(self):
        g = Graph("empty").freeze()
        assert g.peak_activation_bytes() == 0

    def test_peak_counts_a_repeated_input_once(self):
        # c reads a twice; a stays live past c (d reads it), and c's three
        # inputs make it the peak layer.
        g = Graph("dup")
        a = g.add(elementwise_spec("a", OpKind.ADD, (2, 2), n_inputs=1))
        b = g.add(elementwise_spec("b", OpKind.ADD, (2, 2), n_inputs=1), inputs=[a])
        c = g.add(elementwise_spec("c", OpKind.ADD, (2, 2), n_inputs=3), inputs=[a, a, b])
        g.add(elementwise_spec("d", OpKind.ADD, (2, 2), n_inputs=2), inputs=[c, a])
        g.freeze()
        per_layer = [g.activation_bytes_at(i) for i in range(4)]
        assert max(per_layer) == per_layer[2] > max(per_layer[:2] + per_layer[3:])
        assert g.peak_activation_bytes() == per_layer[2]


def _sampled_reference_peak(graph: Graph) -> int:
    """The per-layer definition: the largest ``activation_bytes_at`` over
    every layer of a graph of up to 64 layers, else every ``n // 64``-th."""
    n = graph.num_layers
    step = 1 if n <= 64 else n // 64
    return max(graph.activation_bytes_at(i) for i in range(0, n, step))


_PEAK_GRAPHS = [(m, None) for m in EVALUATED_MODELS] + [
    (m, context) for m in ("GPTN-S", "GPTN-1.3B", "GPTN-2.7B") for context in (128, 1024, 4096)
]


@pytest.mark.parametrize("lowered", [False, True], ids=["raw", "lowered"])
@pytest.mark.parametrize("model,context", _PEAK_GRAPHS,
                         ids=[m if c is None else f"{m}@{c}" for m, c in _PEAK_GRAPHS])
def test_peak_sweep_matches_per_layer_reference(model, context, lowered):
    """The one-sweep peak equals the per-layer query over the same samples
    on every evaluated graph and the decode graphs, before and after
    layout elimination."""
    graph = load_model(model) if context is None else load_decode_model(model, context_len=context)
    if lowered:
        graph = eliminate_layout_ops(graph)
    assert graph.peak_activation_bytes() == _sampled_reference_peak(graph)

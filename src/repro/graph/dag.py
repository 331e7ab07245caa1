"""DNN computational graph: a DAG of low-level operator nodes.

The graph is the unit FlashMem plans over.  Section 3.1 of the paper assumes
a linear execution order ``1..N`` over the lowered operators; :class:`Graph`
maintains that order (a topological order fixed at freeze time) and exposes
the quantities the OPG formulation needs:

- the weight set, with each weight's size and first-consuming layer ``i_w``;
- per-layer activation footprints (for memory accounting);
- per-layer FLOPs/bytes (for the capacity model and the simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph.ops import KVCacheSpec, OpClass, OpKind, OpSpec, WeightSpec


class GraphError(Exception):
    """Raised on structural errors (cycles, duplicate names, dangling edges)."""


@dataclass
class Node:
    """An operator node bound into a graph.

    ``index`` is the node's position in the frozen execution order (0-based;
    the paper's layer indices are 1-based, conversion happens at the OPG
    boundary).
    """

    spec: OpSpec
    index: int = -1
    inputs: List["Node"] = field(default_factory=list)
    outputs: List["Node"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> OpKind:
        return self.spec.kind

    @property
    def op_class(self) -> OpClass:
        return self.spec.op_class

    @property
    def weights(self) -> Tuple[WeightSpec, ...]:
        return tuple(self.spec.weights)

    @property
    def flops(self) -> int:
        return self.spec.flops

    @property
    def weight_bytes(self) -> int:
        return self.spec.weight_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name}, {self.kind}, #{self.index})"


class Graph:
    """A frozen-orderable DAG of operator nodes.

    Typical lifecycle::

        g = Graph("my-model")
        a = g.add(op_spec_a)
        b = g.add(op_spec_b, inputs=[a])
        g.freeze()                # assigns execution order
        for node in g.nodes():    # in execution order
            ...
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._order: Optional[List[Node]] = None
        self._kv_caches: List[KVCacheSpec] = []

    # ------------------------------------------------------------------ build
    def add(self, spec: OpSpec, inputs: Sequence[Node] = ()) -> Node:
        """Insert a node consuming the outputs of ``inputs``."""
        if self._order is not None:
            raise GraphError("graph is frozen; cannot add nodes")
        if spec.name in self._nodes:
            raise GraphError(f"duplicate node name {spec.name!r}")
        node = Node(spec=spec)
        for parent in inputs:
            if parent.name not in self._nodes:
                raise GraphError(f"input node {parent.name!r} not in graph")
            node.inputs.append(parent)
            parent.outputs.append(node)
        self._nodes[spec.name] = node
        return node

    def register_kv_cache(self, cache: KVCacheSpec) -> KVCacheSpec:
        """Register a growing KV-cache tensor owned by this graph.

        Registration is independent of freezing: caches describe runtime
        state, not dataflow structure.  Duplicate names are rejected.
        """
        if any(c.name == cache.name for c in self._kv_caches):
            raise GraphError(f"duplicate kv cache name {cache.name!r}")
        self._kv_caches.append(cache)
        return cache

    def kv_cache_specs(self) -> List[KVCacheSpec]:
        """Registered KV caches (empty for prefill-only graphs).

        Reads through ``__dict__`` so graphs pickled before KV caches
        existed (persistent artifact-store entries) unpickle cleanly.
        """
        return list(self.__dict__.get("_kv_caches", ()))

    def kv_bytes_per_token(self) -> int:
        """Total bytes appended across all caches per decoded token."""
        return sum(c.token_bytes for c in self.kv_cache_specs())

    def freeze(self) -> "Graph":
        """Fix a topological execution order.  Idempotent."""
        if self._order is not None:
            return self
        order: List[Node] = []
        indegree = {n.name: len(n.inputs) for n in self._nodes.values()}
        # Deterministic: ready nodes processed in insertion order.
        ready = [n for n in self._nodes.values() if indegree[n.name] == 0]
        seen = 0
        while ready:
            node = ready.pop(0)
            node.index = seen
            order.append(node)
            seen += 1
            for child in node.outputs:
                indegree[child.name] -= 1
                if indegree[child.name] == 0:
                    ready.append(child)
        if seen != len(self._nodes):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        self._order = order
        return self

    @property
    def frozen(self) -> bool:
        return self._order is not None

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"no node named {name!r}") from None

    def nodes(self) -> List[Node]:
        """Nodes in execution order (requires :meth:`freeze`)."""
        if self._order is None:
            raise GraphError("graph not frozen; call freeze() first")
        return list(self._order)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes())

    # ------------------------------------------------------------- aggregates
    @property
    def num_layers(self) -> int:
        """Lowered operator count (paper Table 6 '# Layers')."""
        return len(self._nodes)

    @property
    def total_flops(self) -> int:
        return sum(n.flops for n in self._nodes.values())

    @property
    def total_macs(self) -> int:
        return self.total_flops // 2

    def _frozen_aggregate(self, key, compute):
        """Memoize ``compute()`` under hashable ``key`` once the graph is frozen.

        ``add`` raises on a frozen graph, so every graph-derived aggregate is
        immutable from that point on; executors re-read them every simulated
        run (the runtime layer also parks its per-profile pricing rows here).
        The cache dict is created lazily so graphs unpickled from older
        artifact-store entries (no ``_agg_cache`` attribute) still work.
        """
        if self._order is None:
            return compute()
        cache = self.__dict__.setdefault("_agg_cache", {})
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    @property
    def total_weight_bytes(self) -> int:
        return self._frozen_aggregate(
            "total_weight_bytes",
            lambda: sum(n.weight_bytes for n in self._nodes.values()),
        )

    @property
    def total_params(self) -> int:
        return sum(w.numel for n in self._nodes.values() for w in n.weights)

    def weights(self) -> List[Tuple[WeightSpec, Node]]:
        """All (weight, owning node) pairs in execution order."""
        out: List[Tuple[WeightSpec, Node]] = []
        for node in self.nodes():
            for w in node.weights:
                out.append((w, node))
        return out

    def weight_first_use(self) -> Dict[str, int]:
        """Map weight name -> index of the earliest consuming layer (i_w).

        In this IR each weight belongs to exactly one node, so first use is
        the owner's index; kept as a map so shared-weight extensions slot in.
        """
        return {w.name: node.index for w, node in self.weights()}

    def activation_bytes_at(self, index: int) -> int:
        """Live activation footprint while layer ``index`` executes.

        Counts the layer's inputs and output plus any earlier outputs still
        needed by later layers (residual connections).  This is the
        activation term of the simulator's memory accounting.
        """
        nodes = self.nodes()
        if not 0 <= index < len(nodes):
            raise GraphError(f"layer index {index} out of range")
        node = nodes[index]
        live = node.spec.output_bytes + node.spec.input_bytes
        for earlier in nodes[:index]:
            if any(child.index > index for child in earlier.outputs) and node not in earlier.outputs:
                live += earlier.spec.output_bytes
        return live

    def peak_activation_bytes(self) -> int:
        """Largest :meth:`activation_bytes_at` over a sample of layers.

        Graphs of up to 64 layers are scanned whole; larger ones at every
        ``n // 64``-th layer.  Memoized on frozen graphs — executors query
        it once per simulated run.
        """
        return self._frozen_aggregate("peak_activation_bytes", self._peak_activation_bytes)

    def _peak_activation_bytes(self) -> int:
        """One O(N + E) sweep for the sampled maximum.

        An output is live across every layer strictly between its producer
        and its last consumer; a difference array sums those outputs for
        all layers at once.  A layer's own inputs are already counted in
        its ``input_bytes``, so its direct producers come off the running
        sum.  Every layer could now be scanned at the same cost, but the
        sample stays: the value feeds decode's preload headroom, and an
        exact peak would move those plans.
        """
        nodes = self.nodes()
        n = len(nodes)
        if n == 0:
            return 0
        step = 1 if n <= 64 else max(1, n // 64)
        last_use = [max((c.index for c in node.outputs), default=-1) for node in nodes]
        across = [0] * (n + 1)
        for i, node in enumerate(nodes):
            if last_use[i] > i + 1:
                nbytes = node.spec.output_bytes
                across[i + 1] += nbytes
                across[last_use[i]] -= nbytes
        peak = 0
        live_across = 0
        for i, node in enumerate(nodes):
            live_across += across[i]
            if i % step:
                continue
            spec = node.spec
            live = spec.output_bytes + spec.input_bytes + live_across
            for j in {p.index for p in node.inputs}:
                if last_use[j] > i:
                    live -= nodes[j].spec.output_bytes
            peak = max(peak, live)
        return peak

    def op_histogram(self) -> Dict[OpKind, int]:
        """Count of nodes per operator kind."""
        hist: Dict[OpKind, int] = {}
        for node in self._nodes.values():
            hist[node.kind] = hist.get(node.kind, 0) + 1
        return hist

    def summary(self) -> str:
        """One-line characterization matching Table 6 columns."""
        return (
            f"{self.name}: params={self.total_params / 1e6:.1f}M "
            f"macs={self.total_macs / 1e9:.1f}G layers={self.num_layers}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph({self.name!r}, {len(self._nodes)} nodes)"

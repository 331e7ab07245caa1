"""OPG problem construction (paper §3.1).

Turns (lowered graph, capacity model, configuration) into the quantities the
solver schedules over:

- per-weight: size, chunk count T(w), first-consuming layer i_w, and the
  candidate transforming layers L(w);
- per-layer: load capacity C_l in chunks and the transform-volume bound
  M_peak (constraint C2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.capacity.model import LoadCapacityModel
from repro.graph.dag import Graph
from repro.graph.ops import OpKind


@dataclass(frozen=True)
class OpgConfig:
    """Hyperparameters of the OPG formulation (paper Table 2 + §3.2).

    Attributes:
        chunk_bytes: uniform chunk size S.
        m_peak_bytes: per-layer transform-volume bound M_peak.  The paper's
            memory-priority default is 500 MB with lambda ~= 0.9.
        lam: λ — weight of the preload term in the objective.
        mu: μ — distance penalty used by the fusion penalty score.
        alpha: α — capacity gain threshold for splitting fused operators.
        lookback: how many layers before i_w may host a weight's transforms
            (bounds L(w), keeping the CP model tractable).
        long_lookback: extended horizon used by the greedy rescue pass for
            weights too large for the CP window (e.g. LM heads); trades
            longer residency for avoiding a full preload.
        window_weights: rolling-window size for incremental scheduling, in
            weights per window.  Counting weights (not layers) bounds the
            CP model size directly and — because fusion splits insert
            *layers* but conserve the weight sequence — keeps the window
            partition invariant across adaptive-fusion iterations, which
            the window-reuse cache depends on.
        soft_threshold_factor: C4 soft-thresholding multiplier on C_l.
        max_soft_rounds: soft-threshold retries before incremental preload.
        preload_hint_weights: weights forced into W by name (paper §5.4:
            "weights can also be explicitly specified by directly adding
            their names to the preload list").
    """

    chunk_bytes: int = 512 * 1024
    m_peak_bytes: int = 500 * 1024 * 1024
    lam: float = 0.9
    mu: float = 0.1
    alpha: float = 0.25
    lookback: int = 16
    long_lookback: int = 160
    window_weights: int = 64
    soft_threshold_factor: float = 1.3
    max_soft_rounds: int = 2
    #: Branch-and-bound node budget per window: the solver's only budget.
    #: Like CP-SAT's deterministic limit it counts work, not seconds, so a
    #: plan is a pure function of graph, device and config, whatever the
    #: machine's speed or load (the paper instead gives each model 150 s).
    max_nodes_per_window: int = 500
    #: Fraction of the device RAM budget the decode-phase KV caches may
    #: occupy as resident state.  The KV residency planner additionally
    #: caps the grant by the RAM the weight plan leaves free, so preload +
    #: resident KV never exceed the budget by construction (see
    #: :func:`repro.opg.lcopg.plan_kv_residency`).
    kv_budget_fraction: float = 0.35
    preload_hint_weights: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        if self.lookback < 1 or self.window_weights < 2:
            raise ValueError("lookback >= 1 and window_weights >= 2 required")
        if not 0.0 < self.kv_budget_fraction <= 1.0:
            raise ValueError("kv_budget_fraction must be in (0, 1]")


@dataclass
class WeightInfo:
    """Solver view of one weight."""

    name: str
    nbytes: int
    consumer_layer: int  # i_w, 0-based
    total_chunks: int    # T(w)
    candidates: List[int] = field(default_factory=list)  # L(w), ascending
    #: Convolution weights: streamed from disk on demand, but their Winograd
    #: layout transformation cannot be embedded in other kernels (paper
    #: §5.2/§5.4) — it runs as a dedicated kernel at the consumer.
    dedicated_transform: bool = False

    @property
    def forced_preload(self) -> bool:
        """True when no earlier layer can host any transform (e.g. the first
        layers' weights — the paper notes these must be in W)."""
        return not self.candidates and not self.dedicated_transform


@dataclass
class OpgProblem:
    """Fully-materialised OPG instance."""

    model: str
    config: OpgConfig
    weights: List[WeightInfo]
    #: C_l per layer, in chunks (0 for layers that cannot host loads).
    layer_capacity: List[int]
    #: M_peak per layer, in chunks (uniform; kept per-layer for adaptivity).
    layer_m_peak: List[int]
    num_layers: int

    @property
    def total_chunks(self) -> int:
        return sum(w.total_chunks for w in self.weights)

    @property
    def streamable_weights(self) -> List[WeightInfo]:
        return [w for w in self.weights if not w.forced_preload]

    def weights_by_consumer(self) -> Dict[int, List[WeightInfo]]:
        out: Dict[int, List[WeightInfo]] = {}
        for w in self.weights:
            out.setdefault(w.consumer_layer, []).append(w)
        return out


def build_problem(
    graph: Graph,
    capacity_model: LoadCapacityModel,
    config: Optional[OpgConfig] = None,
) -> OpgProblem:
    """Materialise the OPG instance for ``graph``.

    Candidate sets L(w) are the layers in ``[i_w - lookback, i_w)`` with
    non-zero capacity; weights whose candidate set is empty (or that the
    user pinned via ``preload_hint_weights``) are forced into W.
    """
    config = config or OpgConfig()
    graph.freeze()
    chunked = capacity_model.capacity_chunks_batch(
        [n.spec for n in graph.nodes()], config.chunk_bytes
    )
    return assemble_problem(graph, chunked, config)


def assemble_problem(graph: Graph, chunked: Sequence[int], config: OpgConfig) -> OpgProblem:
    """The OPG instance of frozen ``graph``, given each node's load capacity
    in chunks as ``capacity_chunks_batch`` reports it (execution order).

    :func:`build_problem` queries the capacity model for ``chunked``;
    LC-OPG passes its per-compile memo of the same answers.
    """
    nodes = graph.nodes()
    # Tiled decode-attention kernels saturate their memory pipeline with KV
    # tile traffic (and may themselves be streaming spilled tiles from
    # disk), so they host no embedded weight transforms regardless of what
    # the generic REUSABLE inversion would grant them.
    capacity = [
        0 if n.kind is OpKind.FLASH_ATTENTION else chunked[i]
        for i, n in enumerate(nodes)
    ]
    m_peak_chunks = max(0, config.m_peak_bytes // config.chunk_bytes)

    weights: List[WeightInfo] = []
    for w, node in graph.weights():
        i_w = node.index
        total_chunks = w.chunk_count(config.chunk_bytes)
        dedicated = node.kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D) and i_w > 0
        if w.name in config.preload_hint_weights or dedicated:
            candidates: List[int] = []
        else:
            lo = max(0, i_w - config.lookback)
            candidates = [l for l in range(lo, i_w) if capacity[l] > 0]
        weights.append(
            WeightInfo(
                name=w.name,
                nbytes=w.nbytes,
                consumer_layer=i_w,
                total_chunks=total_chunks,
                candidates=candidates,
                dedicated_transform=dedicated,
            )
        )
    return OpgProblem(
        model=graph.name,
        config=config,
        weights=weights,
        layer_capacity=capacity,
        layer_m_peak=[m_peak_chunks] * len(nodes),
        num_layers=len(nodes),
    )

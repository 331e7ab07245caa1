"""Overlap plan: the artifact the LC-OPG solver produces (paper §3).

A plan tells the runtime, for every weight:

- whether it is *preloaded* (in the set W — loaded and transformed by
  dedicated data-loading kernels before execution starts);
- otherwise, at which layer its disk -> unified-memory load is issued
  (``z_w``) and how many chunks each earlier layer transforms into texture
  memory (``x_{w, l}``), including byte offsets for each segment.

Plans are produced offline, are model+device specific, and are reusable —
the runtime only reads them (paper: "incurs no runtime overhead").
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class TransformSegment:
    """A contiguous byte range of one weight transformed at one layer."""

    layer: int
    chunks: int
    start_offset: int
    end_offset: int


@dataclass
class WeightSchedule:
    """Complete loading schedule of one weight."""

    weight: str
    nbytes: int
    consumer_layer: int  # i_w: first (and in this IR only) consuming layer
    preloaded: bool
    #: z_w: layer at whose start the disk load is issued (-1 when preloaded).
    load_layer: int = -1
    #: layer index -> chunk count transformed while that layer computes.
    transforms: Dict[int, int] = field(default_factory=dict)
    chunk_bytes: int = 0
    total_chunks: int = 0
    #: Conv weights: streamed from disk but transformed by a dedicated
    #: (non-overlapped) Winograd kernel at the consumer (paper §5.2/§5.4).
    dedicated_transform: bool = False

    @property
    def loading_distance(self) -> int:
        """i_w - z_w (paper's residency proxy); 0 for preloaded weights."""
        if self.preloaded or self.load_layer < 0:
            return 0
        return self.consumer_layer - self.load_layer

    @property
    def streamed_chunks(self) -> int:
        return sum(self.transforms.values())

    def segments(self) -> List[TransformSegment]:
        """Byte segments per transforming layer, in layer order.

        This is the "mapping that specifies which weight segments will be
        preloaded ... along with their corresponding start and end offsets"
        from §3.2.
        """
        out: List[TransformSegment] = []
        offset = 0
        for layer in sorted(self.transforms):
            chunks = self.transforms[layer]
            nbytes = min(chunks * self.chunk_bytes, self.nbytes - offset)
            out.append(
                TransformSegment(
                    layer=layer, chunks=chunks, start_offset=offset, end_offset=offset + nbytes
                )
            )
            offset += nbytes
        return out


@dataclass
class KvResidencyPlan:
    """Residency schedule for the decode-phase KV caches (one per model).

    Weights get a per-weight schedule above; KV caches get one shared policy
    because they all grow in lockstep (one appended row pair per layer per
    token).  The planner grants the caches a byte budget out of whatever RAM
    the weight plan left free, converts it to a per-layer cap of
    ``resident_tiles`` attention tiles, and the runtime keeps the *most
    recent* tiles resident — older tiles spill to disk and are re-streamed
    through the tiled attention kernel (priced by
    :class:`repro.gpusim.kernels.FlashAttentionKernel`).

    Per-token decode cost is piecewise-constant between *context-length
    breakpoints* (tile boundaries); :meth:`breakpoints` enumerates them so
    the executor can extrapolate within each segment.
    """

    #: K/V tokens per attention tile (uniform across the graph's caches).
    tile_tokens: int
    #: Byte budget granted to resident KV state across all caches.
    budget_bytes: int
    #: Max tiles of each cache kept resident (>= 1: the hot tile that
    #: receives appends can never spill mid-write).
    resident_tiles: int
    #: Whether resident tiles live in texture memory (fast path) or plain
    #: unified memory (UM_KV_BW_FACTOR-degraded reads).
    texture: bool
    #: Bytes appended across all caches per decoded token.
    token_bytes: int
    #: Number of per-layer caches sharing the policy.
    caches: int

    def tiles_at(self, kv_tokens: int) -> int:
        """Tiles covering ``kv_tokens`` cached rows (per cache)."""
        if kv_tokens <= 0:
            raise ValueError("kv_tokens must be positive")
        return -(-kv_tokens // self.tile_tokens)

    def resident_tiles_at(self, kv_tokens: int) -> int:
        """Resident tiles (per cache) once ``kv_tokens`` rows are cached."""
        return min(self.tiles_at(kv_tokens), self.resident_tiles)

    def resident_bytes_at(self, kv_tokens: int) -> int:
        """Total resident KV bytes across all caches at ``kv_tokens`` rows.

        Below the cap this is the exact cache content; at the cap it is the
        capped tile footprint (the hot tile is accounted full, as allocated).
        """
        cap_tokens = self.resident_tiles * self.tile_tokens
        return min(kv_tokens, cap_tokens) * self.token_bytes

    def breakpoints(self, context_len: int, tokens: int) -> List[int]:
        """Token indices (0-based, within the generation) where per-token
        attention cost changes: the tile-boundary crossings of the growing
        cache.  Always starts at 0; segment ``i`` spans
        ``[breakpoints[i], breakpoints[i+1])`` (or to ``tokens``).
        """
        if tokens <= 0:
            return []
        out = [0]
        t = 0
        while True:
            # Next token index at which tiles(context_len + t + 1) changes.
            kv = context_len + t + 1
            boundary = self.tiles_at(kv) * self.tile_tokens  # kv count filling the tile
            nxt = boundary - context_len  # token index whose kv exceeds it
            if nxt >= tokens:
                break
            out.append(nxt)
            t = nxt
        return out


@dataclass
class PlanStats:
    """Provenance of a plan: solver timings and fallback activity."""

    process_nodes_s: float = 0.0
    build_model_s: float = 0.0
    solve_s: float = 0.0
    solver_status: str = "UNKNOWN"
    windows: int = 0
    cp_windows: int = 0
    #: Windows whose decision hint met the SRPT distance floor, committed
    #: as OPTIMAL with no CP model and no search (not counted in
    #: ``cp_windows``; see DESIGN.md "compile-path performance").
    floor_closed_windows: int = 0
    heuristic_windows: int = 0
    #: Windows replayed from the solver's cross-solve window cache instead
    #: of being re-solved (adaptive-fusion iterations leave most windows
    #: byte-identical; see DESIGN.md "compile-path performance").
    windows_reused: int = 0
    soft_threshold_rounds: int = 0
    incremental_preloads: int = 0
    nodes_explored: int = 0
    # ---- compile-phase wall-clock split (complements build/solve above) ----
    #: Time inside the CP engine's branch-and-bound (`CpSolver.solve`).
    cp_solve_s: float = 0.0
    #: Time inside the exact release-vector prover (`prove_window`).
    exact_prover_s: float = 0.0
    #: Time inside the greedy fallback tier and the long-range rescue pass.
    greedy_s: float = 0.0
    #: EDF oracle invocations (packability checks + CP hints + prover).
    edf_calls: int = 0
    # ---- solver observability (aggregated over CP windows) ----
    #: Total bound tightenings across all CP solves.
    propagations: int = 0
    #: Constraint evaluations by kind.
    prop_linear: int = 0
    prop_implication: int = 0
    #: Wall-clock split of the CP search loops.
    time_propagate_s: float = 0.0
    time_branch_s: float = 0.0
    time_bound_s: float = 0.0
    #: Per-CP-solve observability dicts (window id, status, nodes/sec, ...).
    window_stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def nodes_per_sec(self) -> float:
        """Aggregate search throughput over the CP windows' solve time."""
        wall = sum(float(w.get("wall_time_s", 0.0)) for w in self.window_stats)
        return self.nodes_explored / wall if wall > 0 else 0.0


@dataclass
class OverlapPlan:
    """The full per-model schedule consumed by the FlashMem runtime."""

    model: str
    device: str
    chunk_bytes: int
    m_peak_bytes: int
    schedules: Dict[str, WeightSchedule]
    stats: PlanStats = field(default_factory=PlanStats)
    #: Decode-phase KV residency policy; None for prefill-only graphs (and
    #: for plans serialized before KV planning existed).
    kv_plan: Optional[KvResidencyPlan] = None

    # --------------------------------------------------------------- queries
    @property
    def preloaded_weights(self) -> List[str]:
        return [name for name, s in self.schedules.items() if s.preloaded]

    @property
    def streamed_weights(self) -> List[str]:
        return [name for name, s in self.schedules.items() if not s.preloaded]

    @property
    def preload_bytes(self) -> int:
        return sum(s.nbytes for s in self.schedules.values() if s.preloaded)

    @property
    def streamed_bytes(self) -> int:
        return sum(s.nbytes for s in self.schedules.values() if not s.preloaded)

    @property
    def total_bytes(self) -> int:
        return self.preload_bytes + self.streamed_bytes

    @property
    def preload_ratio(self) -> float:
        total = self.total_bytes
        return self.preload_bytes / total if total else 0.0

    def transforms_at(self, layer: int) -> List[Tuple[str, int]]:
        """(weight, chunks) pairs transformed while ``layer`` computes."""
        out = []
        for name, s in self.schedules.items():
            if layer in s.transforms:
                out.append((name, s.transforms[layer]))
        return out

    def loads_at(self, layer: int) -> List[str]:
        """Weights whose disk load is issued at the start of ``layer``."""
        return [
            name
            for name, s in self.schedules.items()
            if not s.preloaded and s.load_layer == layer
        ]

    # ----------------------------------------------------------- persistence
    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "device": self.device,
            "chunk_bytes": self.chunk_bytes,
            "m_peak_bytes": self.m_peak_bytes,
            "stats": asdict(self.stats),
            "kv_plan": asdict(self.kv_plan) if self.kv_plan is not None else None,
            "schedules": {
                name: {
                    **asdict(s),
                    "transforms": {str(k): v for k, v in s.transforms.items()},
                }
                for name, s in self.schedules.items()
            },
        }
        return json.dumps(payload, indent=2)

    def canonical_json(self) -> str:
        """Deterministic serialization of everything the runtime consumes.

        ``stats`` is provenance (wall-clock solver timings, node counts) and
        is excluded: two compiles of the same (model, device, config) produce
        identical canonical JSON even though their timings differ.  This is
        the byte-identity contract the cache and the plan-compilation
        service are checked against — a served plan must be canonically
        byte-identical to a direct ``FlashMem.compile`` of the same request.
        """
        payload = json.loads(self.to_json())
        payload.pop("stats", None)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "OverlapPlan":
        payload = json.loads(text)
        schedules = {}
        for name, raw in payload["schedules"].items():
            raw = dict(raw)
            raw["transforms"] = {int(k): v for k, v in raw["transforms"].items()}
            schedules[name] = WeightSchedule(**raw)
        return cls(
            model=payload["model"],
            device=payload["device"],
            chunk_bytes=payload["chunk_bytes"],
            m_peak_bytes=payload["m_peak_bytes"],
            schedules=schedules,
            stats=PlanStats(**payload["stats"]),
            # .get: plans serialized before KV planning have no such key.
            kv_plan=(
                KvResidencyPlan(**payload["kv_plan"])
                if payload.get("kv_plan") is not None
                else None
            ),
        )

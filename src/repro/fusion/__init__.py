"""Operator fusion: fusion pass, penalty scoring, adaptive unfusing (§4.3)."""

from repro.fusion.adaptive import (
    AdaptiveFusionPlanner,
    AdaptiveFusionReport,
    apply_splits,
)
from repro.fusion.fuser import (
    FUSED_MEMBERS,
    fuse_graph,
    fused_members,
    fusion_stats,
    is_fused,
    make_fused_spec,
    unfuse_node,
)
from repro.fusion.penalty import FusionPenalty, fusion_penalties, plan_pressure

__all__ = [
    "AdaptiveFusionPlanner",
    "AdaptiveFusionReport",
    "apply_splits",
    "FUSED_MEMBERS",
    "fuse_graph",
    "fused_members",
    "fusion_stats",
    "is_fused",
    "make_fused_spec",
    "unfuse_node",
    "FusionPenalty",
    "fusion_penalties",
    "plan_pressure",
]

"""Kernel program objects — what the rewriter emits and the runtime prices.

A :class:`KernelProgram` is the simulated analogue of a compiled OpenCL
kernel: the schedule metadata the cost model needs (how many bytes of
weights ride along, whether the loop is pipelined and branch-free) plus the
source text, rendered from that metadata on first read — the cost model
never reads it, so a compile renders none.  The execution styles map to the
paper's Figure 5 comparison:

- ``RESIDENT``   — no embedded loads (weights already in texture memory).
- ``BRANCHY``    — naive conditional interleave: warp divergence penalty.
- ``PIPELINED``  — FlashMem's branch-free software pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List

from repro.graph.ops import OpKind, OpSpec
from repro.kernels import templates
from repro.kernels.templating import Template


class ExecStyle(enum.Enum):
    RESIDENT = "resident"
    BRANCHY = "branchy"
    PIPELINED = "pipelined"


_NAIVE = Template(templates.NAIVE_MATMUL)
_BRANCHY = Template(templates.BRANCHY_INTERLEAVED)
_PIPELINED = Template(templates.PIPELINED_MATMUL)
_ELEMENTAL = Template(templates.ELEMENTAL_STREAM)

_UNROLL = 4


@dataclass
class KernelProgram:
    """One instantiated kernel: costing metadata + source text."""

    name: str
    op: OpSpec
    style: ExecStyle
    #: Weight bytes this kernel streams UM -> TM while computing.
    embedded_load_bytes: int = 0
    #: (weight name, bytes) detail of the embedded segments.
    segments: List[tuple] = field(default_factory=list)

    @cached_property
    def source(self) -> str:
        """Kernel text, rendered from the fields above on first read and
        kept (a pickled program carries it only once it has been read)."""
        spec = self.op
        name = self.name
        embedded = self.embedded_load_bytes
        k_tiles = max(1, int(spec.attrs.get("k", spec.input_specs[0].shape[-1])) // 4)
        if spec.kind in (OpKind.MATMUL, OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.ATTENTION_SCORE):
            if self.style is ExecStyle.PIPELINED and embedded > 0:
                pipeline_tiles = max(1, k_tiles // _UNROLL)
                return _PIPELINED.render(
                    name=name,
                    k_tiles=k_tiles,
                    pipeline_tiles=pipeline_tiles,
                    unroll=list(range(_UNROLL)),
                    unroll_len=_UNROLL,
                    tile_stride=max(1, embedded // (8 * pipeline_tiles)),
                    stream_bytes=embedded,
                )
            if self.style is ExecStyle.BRANCHY and embedded > 0:
                return _BRANCHY.render(name=name, k_tiles=k_tiles, load_stride=8)
            return _NAIVE.render(name=name, k_tiles=k_tiles)
        # Elemental / hierarchical / everything else uses the linear-pass
        # template (hierarchical layers never get embedded loads by plan).
        op_fn = {
            OpKind.GELU: "gelu_approx",
            OpKind.ACTIVATION: "relu",
            OpKind.SOFTMAX: "softmax_stage",
            OpKind.LAYERNORM: "layernorm_stage",
        }.get(spec.kind, "copy")
        return _ELEMENTAL.render(
            name=name,
            op=op_fn,
            binary=len(spec.input_specs) > 1,
            stream_bytes=embedded,
        )

    @property
    def branch_free(self) -> bool:
        return self.style is not ExecStyle.BRANCHY

    @property
    def pipelined(self) -> bool:
        return self.style is ExecStyle.PIPELINED


@dataclass
class KernelBundle:
    """All programs for one model, indexed by layer."""

    model: str
    programs: Dict[int, KernelProgram] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.programs)

    def total_embedded_bytes(self) -> int:
        return sum(p.embedded_load_bytes for p in self.programs.values())

    def styles(self) -> Dict[ExecStyle, int]:
        out: Dict[ExecStyle, int] = {}
        for p in self.programs.values():
            out[p.style] = out.get(p.style, 0) + 1
        return out

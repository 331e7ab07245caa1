"""Template-based kernel rewriting (paper §4.4).

Given a lowered graph and its overlap plan, instantiate a kernel program per
layer: layers the plan assigns embedded loads get the branch-free pipelined
template with the staged byte count baked in; everything else gets the plain
resident-weights template.  No model-specific kernel code is written by hand
— exactly the engineering claim the paper makes for its Jinja pipeline.
A program renders its text only when :attr:`KernelProgram.source` is read.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.graph.dag import Graph, Node
from repro.kernels import templates
from repro.kernels.codegen import ExecStyle, KernelBundle, KernelProgram
from repro.kernels.templating import Template
from repro.opg.plan import OverlapPlan

_TRANSFORM = Template(templates.TRANSFORM_KERNEL)


def _sanitize(name: str) -> str:
    return "k_" + "".join(c if c.isalnum() else "_" for c in name)


class KernelRewriter:
    """Instantiates kernel programs from the computational graph + plan.

    ``style`` selects how layers with embedded loads are generated:
    PIPELINED (FlashMem), BRANCHY (the divergent strawman, for the
    ablation), or RESIDENT (ignore embedded loads — used by runtimes that
    transform weights with dedicated kernels instead).
    """

    def __init__(self, *, style: ExecStyle = ExecStyle.PIPELINED) -> None:
        self.style = style

    def rewrite_graph(self, graph: Graph, plan: Optional[OverlapPlan] = None) -> KernelBundle:
        bundle = KernelBundle(model=graph.name)
        # Byte-exact per-layer staging from the schedules' segment offsets
        # (the last segment of a weight is usually a partial chunk).
        per_layer: dict = {}
        if plan is not None and self.style is not ExecStyle.RESIDENT:
            for name, sched in plan.schedules.items():
                if sched.preloaded:
                    continue
                for seg in sched.segments():
                    per_layer.setdefault(seg.layer, []).append(
                        (name, seg.end_offset - seg.start_offset)
                    )
        for node in graph.nodes():
            segments = per_layer.get(node.index, [])
            embedded = sum(nbytes for _, nbytes in segments)
            bundle.programs[node.index] = self.rewrite_node(node, embedded, segments)
        return bundle

    def rewrite_node(self, node: Node, embedded_bytes: int, segments=()) -> KernelProgram:
        return KernelProgram(
            name=_sanitize(node.name),
            op=node.spec,
            style=self.style if embedded_bytes > 0 else ExecStyle.RESIDENT,
            embedded_load_bytes=embedded_bytes,
            segments=list(segments),
        )


def transform_kernel_source(weight_name: str, nbytes: int) -> str:
    """Source of a dedicated transformation kernel for one weight.

    This is the path preloading frameworks (and FlashMem's own preloaded
    set W) use at initialization.
    """
    width = max(1, int(math.sqrt(max(1, nbytes // 8))))
    return _TRANSFORM.render(name=_sanitize(weight_name) + "_xform", nbytes=nbytes, texture_width=width)

"""2.5D texture memory layout model.

Mobile GPUs expose texture memory as 2D images with a small fixed depth —
each texel packs four scalar channels (RGBA).  The "2.5D" layout of Romou /
SmartMem reorganises an N-D tensor into a grid of (width x height) texels
with depth 4.  This module computes that geometry, the padded storage
footprint, and the scratch a convolution weight's transformation needs:

- :func:`texture_layout` — texel grid for a tensor.
- :func:`texture_bytes` — storage footprint including row alignment padding.
- :func:`winograd_expansion` — temporary memory expansion factor for conv
  weight transformation (why conv models save less memory, paper §5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graph.ops import OpKind, TensorSpec

#: Channels per texel in 2.5D texture memory.
TEXEL_DEPTH = 4

#: Max texture dimension on mobile GPUs (OpenCL image2d limit).
MAX_TEXTURE_DIM = 16384

#: Row pitch alignment in texels.
ROW_ALIGN_TEXELS = 16


@dataclass(frozen=True)
class TextureLayout:
    """Geometry of a tensor stored as a 2.5D texture."""

    width: int       # texels per row
    height: int      # rows
    depth: int       # channels per texel (always 4)
    texel_bytes: int  # bytes per texel

    @property
    def texels(self) -> int:
        return self.width * self.height

    @property
    def nbytes(self) -> int:
        """Padded storage footprint (row pitch aligned)."""
        padded_width = math.ceil(self.width / ROW_ALIGN_TEXELS) * ROW_ALIGN_TEXELS
        return padded_width * self.height * self.texel_bytes


def texture_layout(tensor: TensorSpec) -> TextureLayout:
    """Compute the 2.5D texel grid for ``tensor``.

    The innermost dimension is packed into RGBA channels; remaining elements
    are folded into a near-square 2D grid, clamped to the hardware's maximum
    texture dimension.
    """
    texels = math.ceil(tensor.numel / TEXEL_DEPTH)
    width = min(MAX_TEXTURE_DIM, max(1, int(math.sqrt(texels))))
    height = math.ceil(texels / width)
    if height > MAX_TEXTURE_DIM:
        width = min(MAX_TEXTURE_DIM, math.ceil(texels / MAX_TEXTURE_DIM))
        height = math.ceil(texels / width)
    return TextureLayout(
        width=width,
        height=height,
        depth=TEXEL_DEPTH,
        texel_bytes=TEXEL_DEPTH * tensor.dtype_bytes,
    )


def texture_bytes(tensor: TensorSpec) -> int:
    """Padded texture footprint of ``tensor`` in bytes."""
    return texture_layout(tensor).nbytes


def winograd_expansion(kind: OpKind, kernel: int = 3) -> float:
    """Temporary memory expansion during conv weight transformation.

    F(2x2, 3x3) Winograd transforms a 3x3 kernel tile into a 4x4 tile —
    a 16/9 data expansion — and the transform needs source and destination
    live simultaneously.  Non-conv weights transform in place (factor 1).
    """
    if kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D) and kernel >= 3:
        return 16.0 / 9.0
    return 1.0

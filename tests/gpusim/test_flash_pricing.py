"""Differential tests: vectorized flash-attention pricing is exact.

``pricing._compute_flash_table`` is an operation-for-operation mirror of
the scalar oracle ``flash_attention_time_ms`` (``tests/oracles/sim.py``) —
same division order, same association — so every entry must be *bitwise*
equal to the corresponding scalar call, across both fetch classes
(resident texture / unified reads vs disk-streamed tiles) and arbitrary
efficiency divisors.
"""

import pytest

from repro.gpusim.device import get_device
from repro.gpusim.kernels import FlashAttentionKernel
from repro.gpusim.pricing import flash_attention_time_table, flash_row
from tests.oracles import flash_attention_time_ms

DEVICES = ("OnePlus 12", "Pixel 8", "Xiaomi Mi 6")

#: (heads, head_dim, tile_tokens) shapes spanning the decode zoo.
SHAPES = [(12, 64, 256), (16, 128, 256), (20, 128, 128), (40, 128, 512)]

KV_TOKENS = (1, 17, 255, 256, 257, 1024, 8192)
RESIDENT = (None, 0, 1, 3, 64)
EFFICIENCIES = (1.0, 0.62, 0.31)


@pytest.mark.parametrize("device_name", DEVICES)
def test_flash_table_matches_scalar_oracle_bitwise(device_name):
    device = get_device(device_name)
    cases = [
        (FlashAttentionKernel(heads=h, head_dim=d, tile_tokens=t), kv, res, tex, eff)
        for h, d, t in SHAPES
        for kv in KV_TOKENS
        for res in RESIDENT
        for tex in (True, False)
        for eff in EFFICIENCIES
    ]
    rows = [
        flash_row(k, kv, resident_tiles=res, texture=tex, efficiency=eff)
        for k, kv, res, tex, eff in cases
    ]
    table = flash_attention_time_table(device, rows)
    for i, (kernel, kv, res, tex, eff) in enumerate(cases):
        scalar = flash_attention_time_ms(
            kernel, device, kv, resident_tiles=res, texture=tex, efficiency=eff
        )
        assert table[i] == scalar, (
            f"row {i} diverged on {device_name}: "
            f"kernel={kernel} kv={kv} resident={res} texture={tex} eff={eff}: "
            f"table {table[i]!r} != scalar {scalar!r}"
        )


def test_flash_table_memoized():
    device = get_device("OnePlus 12")
    kernel = FlashAttentionKernel(heads=12, head_dim=64, tile_tokens=256)
    rows = [flash_row(kernel, kv) for kv in (256, 512)]
    first = flash_attention_time_table(device, rows)
    second = flash_attention_time_table(device, rows)
    assert first is second  # LRU hit returns the cached (read-only) array
    assert not first.flags.writeable


def test_tile_plateau():
    """All tiles are priced full, so cost depends only on the tile count —
    the piecewise-constant property the decode extrapolation relies on."""
    device = get_device("OnePlus 12")
    kernel = FlashAttentionKernel(heads=12, head_dim=64, tile_tokens=256)
    rows = [flash_row(kernel, kv, resident_tiles=2) for kv in (257, 300, 512, 513)]
    *within, crossed = flash_attention_time_table(device, rows).tolist()
    assert len(set(within)) == 1
    assert crossed > within[0]

"""Vectorized kernel pricing: whole-graph cost tables for the simulator.

The scalar :class:`~repro.gpusim.kernels.KernelCostModel` prices one operator
per call; executors used to invoke it once per node *per iteration*, which
dominated the cold experiment-suite wall clock.  This module batches the
same arithmetic over every kernel of a run at once with numpy float64
elementwise operations.

**Bitwise contract.**  The vectorized formulas replicate the scalar
:class:`~repro.gpusim.kernels.KernelCostModel` methods operation-for-operation
(same IEEE-754 double ops, same association order), so each table entry
equals the corresponding scalar result *exactly* — not approximately.
``tests/gpusim/test_pricing_differential.py`` pins ``==`` equality across
every device preset, op class, efficiency, and ``extra_bytes`` grid against
the scalar references in ``tests/oracles/sim.py``, and the runtime identity
suites swap those references in for :func:`kernel_time_table` and
:func:`flash_attention_time_table` to pin whole runs.

Tables are memoized in an in-process LRU keyed on the full pricing input
(device profile plus one row per kernel), shared by repeated runs of the
same compiled model.  They are not persisted: loading a table from the
artifact store costs more than pricing it again (see DESIGN.md).

:data:`STATS` counts table hits/misses, simulated runs, simulated wall
seconds, and extrapolated iterations; executors thread per-run deltas into
``RunResult.details`` and the sweep layer aggregates them into the suite
cache-stats line.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceProfile
from repro.gpusim.kernels import (
    BRANCH_DIVERGENCE_PENALTY,
    CONTENTION_GAMMA,
    INTERFERENCE,
    UM_KV_BW_FACTOR,
)
from repro.graph.ops import OpClass, OpSpec

#: One kernel's pricing inputs: everything the scalar model reads.
#: (op_class, flops, bytes_moved, output_bytes, extra_bytes, efficiency,
#:  divergent) — ``divergent`` marks BRANCHY kernels with embedded loads,
#: which pay the whole-body divergence penalty on top.
KernelRow = Tuple[OpClass, int, int, int, int, float, bool]

#: In-process table cache bound (each entry is one float64 array per run
#: shape; 256 comfortably covers the full experiment grid).
_TABLE_CACHE_MAX = 256

#: Class-indexed interference coefficient lookup in a fixed order.
_CLASS_ORDER = (OpClass.REUSABLE, OpClass.ELEMENTAL, OpClass.HIERARCHICAL, OpClass.LAYOUT)
_CLASS_INDEX = {cls: i for i, cls in enumerate(_CLASS_ORDER)}
_HIDE_FRACTION = np.array([INTERFERENCE[c].hide_fraction for c in _CLASS_ORDER])
_SHARE_COEFF = np.array([INTERFERENCE[c].share_coeff for c in _CLASS_ORDER])
#: Precomputed (1 + sync_penalty): the scalar path folds this constant the
#: same way, so the product stays bitwise identical.
_SYNC_FACTOR = np.array([1.0 + INTERFERENCE[c].sync_penalty for c in _CLASS_ORDER])

#: Whole-body factor a BRANCHY kernel with embedded loads pays.
_DIVERGENCE_FACTOR = 1.0 + BRANCH_DIVERGENCE_PENALTY


@dataclass
class SimStats:
    """Process-wide simulation hot-path counters (monotonic)."""

    table_hits: int = 0
    table_misses: int = 0
    runs: int = 0
    sim_s: float = 0.0
    replayed_iterations: int = 0

    _FIELDS = ("table_hits", "table_misses", "runs", "sim_s", "replayed_iterations")

    def snapshot(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def delta_since(self, before: Mapping[str, float]) -> Dict[str, float]:
        return {name: getattr(self, name) - before.get(name, 0) for name in self._FIELDS}


#: The live counters.
STATS = SimStats()


# ------------------------------------------------------------ table build
def _compute_table(device: DeviceProfile, rows: Tuple[KernelRow, ...]) -> np.ndarray:
    """Priced kernel latencies over ``rows`` (float64, exact).

    Mirrors, in order: ``KernelCostModel.base_time_ms`` (layout branch via
    ``output_bytes``), ``compute_slack_ms``, ``time_with_load_ms``, and the
    BRANCHY divergence factor (:data:`BRANCH_DIVERGENCE_PENALTY`).
    """
    cls_idx = np.array([_CLASS_INDEX[r[0]] for r in rows], dtype=np.intp)
    flops = np.array([r[1] for r in rows], dtype=np.int64)
    moved = np.array([r[2] for r in rows], dtype=np.int64)
    out_bytes = np.array([r[3] for r in rows], dtype=np.int64)
    extra = np.array([r[4] for r in rows], dtype=np.int64)
    eff = np.array([r[5] for r in rows], dtype=np.float64)
    divergent = np.array([r[6] for r in rows], dtype=bool)

    launch = device.kernel_launch_ms
    # Scalar: (flops / (fp16_gflops * 1e6)) / efficiency — two divisions, in
    # this order (folding them would round differently).
    t_compute = (flops / (device.fp16_gflops * 1e6)) / eff
    t_memory = (moved / device.um_bw) / eff
    base = launch + np.maximum(t_compute, t_memory)
    is_layout = cls_idx == _CLASS_INDEX[OpClass.LAYOUT]
    if is_layout.any():
        base = np.where(is_layout, launch + out_bytes / device.um_bw, base)
    times = base

    loaded = extra > 0
    if loaded.any():
        slack = np.maximum(0.0, t_compute - t_memory)
        stream = extra / device.tm_upload_bw
        hidden = np.minimum(stream, slack * _HIDE_FRACTION[cls_idx])
        excess = stream - hidden
        exposed = _SHARE_COEFF[cls_idx] * excess * (1.0 + CONTENTION_GAMMA * excess / base)
        with_load = base * _SYNC_FACTOR[cls_idx] + exposed
        if divergent.any():
            with_load = np.where(divergent, with_load * _DIVERGENCE_FACTOR, with_load)
        times = np.where(loaded, with_load, base)
    return times


class _TableCache:
    """Tiny LRU over priced tables (device + rows -> float64 array)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    def get(self, key: tuple) -> Optional[np.ndarray]:
        table = self._entries.get(key)
        if table is not None:
            self._entries.move_to_end(key)
        return table

    def put(self, key: tuple, table: np.ndarray) -> None:
        self._entries[key] = table
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


_TABLES = _TableCache(_TABLE_CACHE_MAX)


def clear_tables() -> None:
    """Drop all in-process priced tables (test isolation)."""
    _TABLES.clear()


def kernel_time_table(device: DeviceProfile, rows: Sequence[KernelRow]) -> np.ndarray:
    """Priced latencies (ms) for ``rows`` on ``device``, memoized.

    The returned array is shared between callers — treat it as read-only
    (executors call ``.tolist()`` once and loop over Python floats).
    """
    rows = tuple(rows)
    key = (device, rows)
    table = _TABLES.get(key)
    if table is not None:
        STATS.table_hits += 1
        return table
    STATS.table_misses += 1
    table = _compute_table(device, rows)
    table.setflags(write=False)
    _TABLES.put(key, table)
    return table


# --------------------------------------------------- flash-attention tables
#: One tiled decode-attention call's pricing inputs: the kernel geometry
#: plus the per-call residency split.  ``resident_tiles=-1`` means "whole
#: cache resident".
FlashRow = Tuple[int, int, int, int, int, int, bool, float]


def flash_row(
    kernel,
    kv_tokens: int,
    *,
    resident_tiles: Optional[int] = None,
    texture: bool = True,
    efficiency: float = 1.0,
) -> FlashRow:
    """Pricing row of one decode-attention call of ``kernel``.

    ``resident_tiles=None`` keeps the whole cache resident (the preloading
    baselines); otherwise the oldest tiles beyond it stream from disk.
    ``texture`` selects the resident read path (texture cache vs
    :data:`~repro.gpusim.kernels.UM_KV_BW_FACTOR`-degraded unified memory).
    """
    return (
        kernel.heads,
        kernel.head_dim,
        kernel.tile_tokens,
        kernel.dtype_bytes,
        kv_tokens,
        -1 if resident_tiles is None else resident_tiles,
        texture,
        efficiency,
    )


def _compute_flash_table(device: DeviceProfile, rows: Tuple[FlashRow, ...]) -> np.ndarray:
    """Priced tiled decode-attention latencies over ``rows`` (exact).

    Tiles are priced full, so a call's cost depends only on its tile count
    ``n``: an exposed first-tile fill, then ``max(compute, fetch)`` per tile
    for the ``s`` disk-streamed (oldest) tiles and the ``r`` resident ones.
    ``tests/gpusim/test_flash_pricing.py`` pins every entry bitwise against
    the scalar per-call reference in ``tests/oracles/sim.py``.
    """
    heads = np.array([r[0] for r in rows], dtype=np.int64)
    head_dim = np.array([r[1] for r in rows], dtype=np.int64)
    tile_tokens = np.array([r[2] for r in rows], dtype=np.int64)
    dtype_bytes = np.array([r[3] for r in rows], dtype=np.int64)
    kv_tokens = np.array([r[4] for r in rows], dtype=np.int64)
    resident = np.array([r[5] for r in rows], dtype=np.int64)
    texture = np.array([r[6] for r in rows], dtype=bool)
    eff = np.array([r[7] for r in rows], dtype=np.float64)

    tile_bytes = 2 * heads * head_dim * tile_tokens * dtype_bytes
    tile_flops = 4 * heads * head_dim * tile_tokens
    n = -(-kv_tokens // tile_tokens)
    r = np.where(resident < 0, n, np.minimum(n, resident))
    s = n - r
    t_compute = (tile_flops / (device.fp16_gflops * 1e6)) / eff
    t_resident = (tile_bytes / device.um_bw) / eff
    t_resident = np.where(texture, t_resident, t_resident / UM_KV_BW_FACTOR)
    t_stream = device.disk_latency_ms + tile_bytes / device.disk_bw
    fill = np.where(s > 0, t_stream, t_resident)
    steady = s * np.maximum(t_compute, t_stream) + r * np.maximum(t_compute, t_resident)
    return device.kernel_launch_ms + fill + steady


def flash_attention_time_table(
    device: DeviceProfile, rows: Sequence[FlashRow]
) -> np.ndarray:
    """Priced tiled-attention latencies (ms) for ``rows``, memoized.

    Shares the in-process LRU with :func:`kernel_time_table` under a tagged
    key.
    """
    rows = tuple(rows)
    key = (device, "flash-attention", rows)
    table = _TABLES.get(key)
    if table is not None:
        STATS.table_hits += 1
        return table
    STATS.table_misses += 1
    table = _compute_flash_table(device, rows)
    table.setflags(write=False)
    _TABLES.put(key, table)
    return table


# --------------------------------------------------------- row construction
def spec_row(
    op: OpSpec,
    *,
    extra_bytes: int = 0,
    efficiency: float = 1.0,
    divergent: bool = False,
) -> KernelRow:
    """The pricing inputs of one operator (see :data:`KernelRow`)."""
    return (op.op_class, op.flops, op.bytes_moved, op.output_bytes,
            extra_bytes, efficiency, divergent)

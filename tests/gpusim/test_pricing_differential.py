"""Differential tests: vectorized pricing vs the scalar oracle, exactly.

The vectorized cost tables (``repro.gpusim.pricing``) claim *bitwise*
equality with the scalar :class:`KernelCostModel` path — not approximate
agreement.  These tests sweep every device preset, every op class present
in the model zoo, an efficiency grid, and an ``extra_bytes`` grid, and pin
``==`` on every entry.  They are the formal contract behind the executors'
table pricing.
"""

import pytest

from repro.gpusim import pricing
from repro.gpusim.device import DEVICE_PRESETS
from repro.gpusim.kernels import BRANCH_DIVERGENCE_PENALTY, KernelCostModel
from repro.graph.models import load_model
from repro.graph.ops import OpClass
from tests.runtime.identity import assert_timelines_identical, scalar_pricing

EFFICIENCIES = (1.0, 0.7, 0.45, 0.22)
EXTRA_BYTES = (0, 1 << 16, 1 << 20, 37_000_000)


@pytest.fixture(scope="module")
def sample_ops():
    """A few operator specs per op class, drawn from real model graphs."""
    by_class = {}
    for model in ("ResNet50", "ViT", "GPTN-S"):
        graph = load_model(model)
        graph.freeze()
        for node in graph.nodes():
            bucket = by_class.setdefault(node.op_class, [])
            if len(bucket) < 4:
                bucket.append(node.spec)
    # The executors price every class the simulator distinguishes.
    assert set(by_class) >= {OpClass.REUSABLE, OpClass.ELEMENTAL, OpClass.HIERARCHICAL}
    return [op for ops in by_class.values() for op in ops]


@pytest.mark.parametrize("device_name", sorted(DEVICE_PRESETS))
def test_table_matches_scalar_oracle_exactly(device_name, sample_ops):
    """Every (op, efficiency, extra_bytes) cell equals the scalar result."""
    device = DEVICE_PRESETS[device_name]
    cost = KernelCostModel(device)
    rows = []
    expected = []
    for op in sample_ops:
        for eff in EFFICIENCIES:
            for extra in EXTRA_BYTES:
                rows.append(pricing.spec_row(op, extra_bytes=extra, efficiency=eff))
                expected.append(cost.time_with_load_ms(op, extra, efficiency=eff))
    table = pricing.kernel_time_table(device, rows)
    assert len(table) == len(expected)
    for got, want, row in zip(table.tolist(), expected, rows):
        assert got == want, f"row {row}: {got!r} != {want!r}"


@pytest.mark.parametrize("device_name", sorted(DEVICE_PRESETS))
def test_divergent_rows_apply_branch_penalty_exactly(device_name, sample_ops):
    """BRANCHY kernels with embedded loads pay the divergence factor, bitwise."""
    device = DEVICE_PRESETS[device_name]
    cost = KernelCostModel(device)
    extra = 5_000_000
    rows = [pricing.spec_row(op, extra_bytes=extra, divergent=True) for op in sample_ops]
    table = pricing.kernel_time_table(device, rows)
    for got, op in zip(table.tolist(), sample_ops):
        want = cost.time_with_load_ms(op, extra) * (1.0 + BRANCH_DIVERGENCE_PENALTY)
        assert got == want


def test_divergent_without_load_is_base_price(sample_ops):
    """``divergent`` only matters with an embedded load (mirrors codegen)."""
    device = DEVICE_PRESETS["OnePlus 12"]
    cost = KernelCostModel(device)
    rows = [pricing.spec_row(op, extra_bytes=0, divergent=True) for op in sample_ops]
    table = pricing.kernel_time_table(device, rows)
    for got, op in zip(table.tolist(), sample_ops):
        assert got == cost.base_time_ms(op)


def test_table_memoized_and_counted(sample_ops):
    """Identical (device, rows) queries hit the in-process LRU."""
    device = DEVICE_PRESETS["Pixel 8"]
    rows = tuple(pricing.spec_row(op) for op in sample_ops)
    pricing.clear_tables()
    before = pricing.STATS.snapshot()
    first = pricing.kernel_time_table(device, rows)
    second = pricing.kernel_time_table(device, rows)
    delta = pricing.STATS.delta_since(before)
    assert second is first
    assert delta["table_misses"] == 1
    assert delta["table_hits"] == 1
    assert not first.flags.writeable  # shared array is read-only


@pytest.mark.parametrize("framework", ["MNN", "ETorch", "SMem"])
def test_preload_rows_price_each_node_at_its_efficiency(framework):
    """PreloadExecutor's table rows: convolutions at the framework's conv
    efficiency, everything else at its kernel efficiency."""
    from repro.graph.ops import OpKind
    from repro.runtime.frameworks import get_profile
    from repro.runtime.preload import PreloadExecutor

    device = DEVICE_PRESETS["OnePlus 12"]
    profile = get_profile(framework)
    graph = load_model("ResNet50")
    graph.freeze()
    nodes = list(graph.nodes())
    cost = KernelCostModel(device)
    convs = (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D)
    want = [
        cost.base_time_ms(
            n.spec,
            efficiency=profile.conv_exec_efficiency if n.kind in convs else profile.exec_efficiency,
        )
        for n in nodes
    ]
    assert any(n.kind in convs for n in nodes)
    assert PreloadExecutor(profile, device)._durations(graph, nodes) == want


def test_preload_executor_tables_match_scalar_path(monkeypatch):
    """End-to-end: PreloadExecutor prices identically with tables and with
    one scalar call per kernel."""
    from repro.gpusim.device import oneplus_12
    from repro.runtime.frameworks import get_profile
    from repro.runtime.preload import PreloadExecutor
    from repro.runtime.scenario import Scenario

    graph = load_model("ViT")
    volatile = {"sim_s", "pricing_hits", "pricing_misses"}
    for framework in ("MNN", "ETorch", "SMem"):
        executor = PreloadExecutor(get_profile(framework), oneplus_12())
        fast = executor.run(graph, scenario=Scenario.prefill(2), check_support=False)
        with monkeypatch.context() as patch:
            scalar_pricing(patch)
            slow = executor.run(graph, scenario=Scenario.prefill(2), check_support=False)
        assert fast.latency_ms == slow.latency_ms
        assert fast.phases == slow.phases
        assert_timelines_identical(fast.memory, slow.memory)
        assert fast.peak_memory_bytes == slow.peak_memory_bytes
        assert fast.avg_memory_bytes == slow.avg_memory_bytes
        assert fast.energy_j == slow.energy_j
        assert fast.avg_power_w == slow.avg_power_w
        fast_details = {k: v for k, v in fast.details.items() if k not in volatile}
        slow_details = {k: v for k, v in slow.details.items() if k not in volatile}
        assert fast_details == slow_details

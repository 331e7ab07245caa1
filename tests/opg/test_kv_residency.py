"""Property tests for the KV residency plan (hypothesis).

Invariants of :class:`repro.opg.plan.KvResidencyPlan`:

- the resident footprint is monotone non-decreasing in cached tokens
  (growing prompts never *shrink* the planned cache);
- it never exceeds the planned byte budget, at any context length;
- it plateaus exactly at the tile cap (the flat-memory story);
- breakpoints partition a decode run into segments whose tile count — and
  therefore per-token cost — is constant, always starting at token 0.

Plus end-to-end: plans produced by ``FlashMem.compile`` on real decode
graphs respect the device RAM budget and the configured KV fraction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opg.plan import KvResidencyPlan


@st.composite
def kv_plans(draw):
    tile_tokens = draw(st.sampled_from([64, 128, 256, 512]))
    caches = draw(st.integers(1, 80))
    # Per-token bytes across all caches: layers * 2 (K+V) * heads * dim * dtype.
    token_bytes = caches * 2 * draw(st.sampled_from([12 * 64, 16 * 128, 40 * 128])) * 2
    resident_tiles = draw(st.integers(1, 64))
    tile_bytes_all = token_bytes * tile_tokens
    # The planner guarantees budget >= one full tile across all caches.
    budget = draw(st.integers(resident_tiles * tile_bytes_all,
                              2 * resident_tiles * tile_bytes_all))
    return KvResidencyPlan(
        tile_tokens=tile_tokens,
        budget_bytes=budget,
        resident_tiles=resident_tiles,
        texture=draw(st.booleans()),
        token_bytes=token_bytes,
        caches=caches,
    )


@given(kv_plans(), st.integers(1, 20_000))
@settings(max_examples=200, deadline=None)
def test_footprint_monotone_and_budgeted(plan, kv_tokens):
    here = plan.resident_bytes_at(kv_tokens)
    assert here <= plan.budget_bytes
    assert here >= 0
    if kv_tokens > 1:
        assert here >= plan.resident_bytes_at(kv_tokens - 1)
    # Once the cap is reached the footprint is flat, however long the prompt.
    cap_tokens = plan.resident_tiles * plan.tile_tokens
    assert plan.resident_bytes_at(cap_tokens) == plan.resident_bytes_at(cap_tokens + 9999)


@given(kv_plans(), st.integers(0, 4096), st.integers(1, 512))
@settings(max_examples=200, deadline=None)
def test_breakpoints_partition_the_run(plan, context_len, tokens):
    breaks = plan.breakpoints(context_len, tokens)
    assert breaks and breaks[0] == 0
    assert breaks == sorted(set(breaks))
    assert all(0 <= b < tokens for b in breaks)
    # Within each segment the tile count (hence per-token cost) is constant.
    for i, start in enumerate(breaks):
        end = breaks[i + 1] if i + 1 < len(breaks) else tokens
        tiles = {plan.tiles_at(context_len + t + 1) for t in range(start, end)}
        assert len(tiles) == 1


@given(kv_plans())
@settings(max_examples=100, deadline=None)
def test_growing_capped_transition_is_a_tile_boundary(plan):
    """The cap lands on a tile boundary, so ``growing`` never flips inside
    a segment — the precondition for decode trace replay."""
    cap_tokens = plan.resident_tiles * plan.tile_tokens
    assert cap_tokens % plan.tile_tokens == 0
    assert plan.resident_bytes_at(cap_tokens) == cap_tokens * plan.token_bytes


def test_compiled_plans_respect_device_budget():
    from repro.core.config import FlashMemConfig
    from repro.core.flashmem import FlashMem
    from repro.gpusim.device import get_device
    from repro.graph.models import load_decode_model
    from repro.opg.problem import OpgConfig

    config = FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300))
    fm = FlashMem(config)
    for device_name in ("OnePlus 12", "Pixel 8"):
        device = get_device(device_name)
        compiled = fm.compile(load_decode_model("GPTN-S", context_len=1024), device)
        kv_plan = compiled.plan.kv_plan
        assert kv_plan is not None
        tile_bytes_all = kv_plan.token_bytes * kv_plan.tile_tokens
        assert kv_plan.budget_bytes <= max(
            int(device.ram_budget_bytes * config.opg.kv_budget_fraction), tile_bytes_all
        )
        assert kv_plan.resident_tiles >= 1
        assert kv_plan.resident_bytes_at(10**9) <= kv_plan.budget_bytes

"""Property-based tests for simulator primitives (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.ops import TensorSpec
from repro.gpusim.memory import MemoryPool
from repro.gpusim.queues import CommandQueue
from repro.gpusim.texture import ROW_ALIGN_TEXELS, TEXEL_DEPTH, texture_bytes, texture_layout
from repro.gpusim.timeline import MemoryTimeline


@given(
    st.lists(
        st.tuples(st.floats(0, 1000), st.integers(0, 10**9)),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=80, deadline=None)
def test_timeline_peak_dominates_average(samples):
    rows = [(0.0, 0)] + sorted(samples)
    t = MemoryTimeline([r[0] for r in rows], [r[1] for r in rows])
    end = max(time for time, _ in samples) + 1.0
    assert t.peak_bytes >= t.average_bytes(0.0, end)
    assert t.peak_bytes >= max(v for _, v in samples)


@given(st.lists(st.floats(0.001, 100), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_queue_events_never_overlap(durations):
    q = CommandQueue("gpu")
    for i, d in enumerate(durations):
        q.submit(f"e{i}", d)
    events = q.events
    for a, b in zip(events, events[1:]):
        assert b.start_ms >= a.end_ms
    assert abs(q.busy_time_ms() - sum(durations)) < 1e-6


@given(
    st.lists(
        st.tuples(st.sampled_from("abcdefgh"), st.integers(1, 1000)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=80, deadline=None)
def test_memory_pool_accounting_balances(ops):
    """Random alloc/free interleavings keep in_use = sum of live sizes."""
    pool = MemoryPool("um")
    live = {}
    for name, size in ops:
        if name in live:
            assert pool.free(name) == live.pop(name)
        else:
            pool.allocate(name, size)
            live[name] = size
        assert pool.in_use == sum(live.values())
    assert sorted(pool.live_names()) == sorted(live)


@given(
    st.tuples(
        st.integers(1, 4096),
        st.integers(1, 512),
        st.sampled_from([2, 4]),
    )
)
@settings(max_examples=100, deadline=None)
def test_texture_layout_covers_tensor(dims):
    rows, cols, dtype = dims
    t = TensorSpec((rows, cols), dtype_bytes=dtype)
    layout = texture_layout(t)
    # Enough texels for every scalar, with bounded padding overhead.
    assert layout.texels * TEXEL_DEPTH >= t.numel
    assert texture_bytes(t) >= t.nbytes
    max_padding = (
        (layout.width + ROW_ALIGN_TEXELS) * layout.texel_bytes * layout.height
        + layout.width * layout.texel_bytes
    )
    assert texture_bytes(t) <= t.nbytes + max_padding + layout.texel_bytes * TEXEL_DEPTH * layout.height

"""Property tests: columnar session merge ≡ the seed per-sample loop.

The seed ``FifoPipeline.run`` stitched sessions with a per-sample loop::

    for t, v in run.memory.samples:
        merged.record(clock + t, v)
    merged.record(end, 0)

For non-overlapping sessions supplied in start order every ``record`` was
an append, so the loop is the row list built below.  The numpy merge
(:func:`merge_sessions`) must reproduce it row for row — same times
(bit-identical float adds), same values, same order at shared instants
(teardown frees land before the next session's allocations).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.timeline import (
    MemoryTimeline,
    merge_session_columns,
    merge_sessions,
    session_deltas,
)
from tests.oracles import timeline_rows


def _seed_merge(timelines, offsets, ends):
    """The pre-columnar merge loop, appending rows."""
    merged = [(0.0, 0)]
    for tl, off, end in zip(timelines, offsets, ends):
        for t, v in timeline_rows(tl):
            merged.append((off + t, v))
        merged.append((end, 0))
    return merged


def _timeline(rows):
    """A timeline whose columns are the origin row, then ``rows``."""
    return MemoryTimeline([0.0] + [t for t, _ in rows], [0] + [v for _, v in rows])


def _columnar_merge(timelines, offsets, ends):
    return merge_sessions(
        [
            (off, *session_deltas(tl), end)
            for tl, off, end in zip(timelines, offsets, ends)
        ]
    )


# Per session: a list of (time_gap, value) record events — a zero gap makes a
# same-instant tie — plus the idle gap before the session and the teardown
# tail after its last sample.  Zero idle gap makes sessions touch, putting
# one session's teardown and the next session's first samples at the same
# instant.
_EVENTS = st.lists(
    st.tuples(st.floats(0, 50), st.integers(0, 10**9)),
    min_size=1,
    max_size=20,
)
_SESSIONS = st.lists(
    st.tuples(_EVENTS, st.floats(0, 20), st.floats(0, 20)),
    min_size=1,
    max_size=6,
)


def _build(spec):
    timelines, offsets, ends = [], [], []
    clock = 0.0
    for events, idle_gap, tail in spec:
        rows = []
        t = 0.0
        for gap, value in events:
            t += gap
            rows.append((t, value))
        tl = _timeline(rows)
        off = clock + idle_gap
        end = off + t + tail
        timelines.append(tl)
        offsets.append(off)
        ends.append(end)
        clock = end
    return timelines, offsets, ends


@given(_SESSIONS)
@settings(max_examples=120, deadline=None)
def test_columnar_merge_matches_seed_loop(spec):
    timelines, offsets, ends = _build(spec)
    expected = _seed_merge(timelines, offsets, ends)
    merged = _columnar_merge(timelines, offsets, ends)
    assert timeline_rows(merged) == expected


def test_touching_sessions_free_before_alloc_tie():
    # Session A ends at t=10 exactly when session B records its first
    # allocation: the merged timeline must free A before allocating B.
    a = _timeline([(0.0, 100)])
    b = _timeline([(0.0, 70)])
    merged = _columnar_merge([a, b], [0.0, 10.0], [10.0, 20.0])
    at_ten = [v for t, v in timeline_rows(merged) if t == 10.0]
    assert at_ten == [0, 0, 70]  # teardown, B's initial zero, B's alloc
    assert merged.peak_bytes == 100


def test_overlapping_sessions_sum():
    a = _timeline([(0.0, 100)])
    b = _timeline([(0.0, 70)])
    merged = _columnar_merge([a, b], [0.0, 5.0], [10.0, 20.0])
    assert merged.usage_at(7.0) == 170
    assert merged.usage_at(10.0) == 70  # A torn down, B still resident
    assert merged.usage_at(20.0) == 0
    assert merged.peak_bytes == 170


def test_negative_total_rejected():
    tl = _timeline([(0.0, 100)])
    times, deltas = session_deltas(tl)
    with pytest.raises(ValueError):
        # A bogus extra free below zero.
        merge_session_columns(
            [(0.0, times, np.append(deltas, np.int64(-200)), 10.0)]
        )


def test_session_deltas_round_trip():
    tl = _timeline([(1.0, 10), (2.0, 35), (2.0, 5), (7.0, 0)])
    times, deltas = session_deltas(tl)
    assert np.cumsum(deltas).tolist() == tl.totals.tolist()
    assert times.tolist() == tl.times.tolist()
    assert deltas.dtype == np.int64

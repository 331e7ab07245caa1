"""The delta log's timeline is a function of its rows, not of how they came.

``Simulation`` keeps memory rows in three typed columns (time, bytes,
tie rank) that take whole columns at once, and ``build_timeline``
lexsorts them on (time, rank, bytes).  So the integrated columns must be
the same bits whatever order the rows were appended in, and whether they
arrived one at a time or in bulk — including rows tied in time across
both ranks, where the tie rule decides the order.  Bulk rows are rank 0;
the one rank-1 row is an after-alloc ``free_um``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import get_device
from repro.gpusim.engine import Simulation

DEVICE = get_device("OnePlus 12")

# Few distinct times, so most rows tie with others (across ranks too).
_times = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 10.0))
# ``(time, bytes, rank)``: a rank-0 row of any sign, or a rank-1 free of
# ``bytes``.
rows = st.lists(
    st.one_of(st.tuples(_times, st.integers(-1000, 1000), st.just(0)),
              st.tuples(_times, st.integers(0, 1000), st.just(1))),
    max_size=40,
)


def _timeline(log, appends):
    """Columns after ``appends`` of ``log``'s rows: a list of index
    batches, each logged as one rank-0 column, or single indices, each an
    after-alloc ``free_um``.  A ballast row comes first, so no order takes
    the total below zero, and each freed buffer is allocated with it."""
    sim = Simulation(DEVICE, model="m", runtime="r")
    sim.log_memory([-1.0], [10**9])
    for item in appends:
        if not isinstance(item, list):
            sim.alloc_um(f"b{item}", log[item][1], -1.0)
    for item in appends:
        if isinstance(item, list):
            sim.log_memory(np.array([log[i][0] for i in item], dtype=np.float64),
                           [log[i][1] for i in item])
        else:
            sim.free_um(f"b{item}", log[item][0], after_allocs=True)
    timeline = sim.build_timeline()
    return timeline.times.tobytes(), timeline.totals.tobytes()


@given(rows, st.data())
@settings(max_examples=200, deadline=None)
def test_timeline_ignores_append_order_and_batching(log, data):
    one_at_a_time = _timeline(log, [i if rank else [i] for i, (_, _, rank) in enumerate(log)])
    shuffled = data.draw(st.permutations(range(len(log))))
    appends, i = [], 0
    while i < len(shuffled):
        size = data.draw(st.integers(1, 8))
        chunk = shuffled[i:i + size]
        bulk = [j for j in chunk if not log[j][2]]
        frees = [j for j in chunk if log[j][2]]
        appends += [bulk] + frees if data.draw(st.booleans()) else frees + [bulk]
        i += size
    assert _timeline(log, appends) == one_at_a_time
    # The definition: rows sorted by (time, rank, bytes), then summed.
    ordered = sorted([(-1.0, 0, 10**9)]
                     + [(-1.0, 0, n) for _, n, rank in log if rank]
                     + [(t, rank, -n if rank else n) for t, n, rank in log])
    times = np.array([0.0] + [t for t, _, _ in ordered])
    totals = np.cumsum([0] + [n for _, _, n in ordered], dtype=np.int64)
    assert one_at_a_time == (times.tobytes(), totals.tobytes())


def test_bulk_rows_must_pair_up():
    sim = Simulation(DEVICE, model="m", runtime="r")
    with pytest.raises(ValueError, match="one length"):
        sim.log_memory([0.0, 1.0], [5])
    assert sim.build_timeline().times.tolist() == [0.0]


def test_free_all_logs_every_live_size_as_one_column():
    """Teardown frees both pools at one instant and returns the timeline
    to zero; the pools end empty."""
    sim = Simulation(DEVICE, model="m", runtime="r")
    sim.alloc_um("a", 100, 0.0)
    sim.alloc_tm("a.tex", 40, 1.0)
    sim.alloc_um("b", 7, 2.0)
    sim.free_um("b", 3.0)
    sim.free_all(5.0)
    timeline = sim.build_timeline()
    assert timeline.totals.tolist() == [0, 100, 140, 147, 140, 40, 0]
    assert timeline.times.tolist()[-2:] == [5.0, 5.0]
    assert not sim.um.live_names() and not sim.tm.live_names()
    assert sim.total_in_use == 0

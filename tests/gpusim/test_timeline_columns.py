"""The column timeline answers exactly what the row walk answered.

:class:`MemoryTimeline` keeps ``times``/``totals`` numpy columns and
answers ``peak_bytes``, ``usage_at`` and ``average_bytes`` with numpy
passes.  The references in ``tests/oracles/sim.py`` walk the same rows one
at a time, as the timeline did when it was a tuple list.  Every answer
must be the identical Python ``int``/``float`` — averages are compared
through ``float.hex()``, so a reordered sum (``np.sum``'s pairwise tree in
place of the sequential ``np.add.accumulate``) fails here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.gpusim.timeline import MemoryTimeline
from repro.graph.models import load_model
from repro.opg.problem import OpgConfig
from repro.runtime.scenario import Scenario
from tests.oracles import (
    average_bytes_reference,
    peak_bytes_reference,
    timeline_rows,
    usage_at_reference,
)
from tests.runtime.identity import run

# A step: the gap since the previous row (zero repeats its time) and the
# bytes in use from then on.
_STEPS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 50.0, allow_subnormal=False)),
        st.integers(0, 10**12),
    ),
    min_size=1,
    max_size=60,
)


def _rows(steps):
    rows = [(0.0, 0)]
    t = 0.0
    for gap, value in steps:
        t += gap
        rows.append((t, value))
    return rows


def _instant(draw, rows, *, after=None):
    """A probe time: before the first row, at a row, between two rows,
    at the last row or past it (and, given ``after``, above it)."""
    times = [t for t, _ in rows]
    kind = draw(st.sampled_from(["before", "at", "between", "last", "past", "free"]))
    if kind == "before":
        t = -draw(st.floats(0.001, 10.0))
    elif kind == "at":
        t = draw(st.sampled_from(times))
    elif kind == "between":
        i = draw(st.integers(0, len(times) - 1))
        j = min(i + 1, len(times) - 1)
        t = (times[i] + times[j]) / 2
    elif kind == "last":
        t = times[-1]
    elif kind == "past":
        t = times[-1] + draw(st.floats(0.001, 100.0))
    else:
        t = draw(st.floats(-5.0, times[-1] + 5.0))
    if after is not None and draw(st.booleans()):
        t = max(t, after + draw(st.floats(0.001, 10.0)))
    return t


@given(_STEPS, st.data())
@settings(max_examples=300, deadline=None)
def test_queries_match_row_walk(steps, data):
    rows = _rows(steps)
    timeline = MemoryTimeline([t for t, _ in rows], [v for _, v in rows])
    peak = timeline.peak_bytes
    assert type(peak) is int and peak == peak_bytes_reference(rows)
    for _ in range(4):
        probe = _instant(data.draw, rows)
        usage = timeline.usage_at(probe)
        assert type(usage) is int and usage == usage_at_reference(rows, probe)
    # Windows that start before, at or between rows, end at or past the
    # last row, or end at or before their start.
    for _ in range(4):
        start = _instant(data.draw, rows)
        kind = data.draw(st.sampled_from(["default", "at start", "before start", "probe"]))
        if kind == "default":
            end = None
        elif kind == "at start":
            end = start
        elif kind == "before start":
            end = start - data.draw(st.floats(0.001, 10.0))
        else:
            end = _instant(data.draw, rows, after=start)
        got = timeline.average_bytes(start, end)
        want = average_bytes_reference(rows, start, end)
        assert type(got) is float
        assert got.hex() == want.hex(), (start, end)


# ------------------------------------------------------------- whole runs
MODELS = ("GPTN-S", "ViT", "ResNet50", "SAM-2")
DEVICES = ("OnePlus 12", "Pixel 8")
#: Runtime and its workload: FlashMem streams three prefill passes.
RUNTIMES = (
    ("FlashMem", Scenario.prefill(3)),
    ("MNN", Scenario.prefill()),
    ("SMem", Scenario.prefill()),
)


@pytest.fixture(scope="module")
def fm():
    return FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300)))


@pytest.fixture(scope="module")
def compiled_models(session_compile):
    return {
        (model, device): session_compile(model, device)
        for model in MODELS
        for device in DEVICES
    }


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("model", MODELS)
def test_run_memory_matches_row_walk(fm, compiled_models, model, device):
    """Each run's peak and average equal the references over the run's own
    columns, for the whole run and three sub-windows of it."""
    compiled = compiled_models[(model, device)]
    for runtime, scenario in RUNTIMES:
        result = run(runtime, fm, compiled, load_model(model), scenario)
        memory = result.memory
        rows = timeline_rows(memory)
        assert len(rows) > 100
        assert result.peak_memory_bytes == peak_bytes_reference(rows)
        end = result.latency_ms
        assert result.avg_memory_bytes.hex() == average_bytes_reference(rows, 0.0, end).hex()
        mid_row = rows[len(rows) // 2][0]
        for start, stop in ((0.0, end / 3), (end / 4, 3 * end / 4), (mid_row, end)):
            assert (
                memory.average_bytes(start, stop).hex()
                == average_bytes_reference(rows, start, stop).hex()
            ), (runtime, start, stop)

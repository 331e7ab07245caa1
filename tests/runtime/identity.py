"""Shared helpers for the replay byte-identity suites.

``test_extrapolation_equivalence`` (prefill) and ``test_decode_equivalence``
(decode) check that segment replay is exact: every ``RunResult`` field
except the volatile wall-clock and replay counters must equal a run that
simulates every pass (``tests/oracles/sim.py``), for FlashMem and for the
MNN preloading baseline.  ``test_replay_core`` and ``test_staging`` compare
queue rows as :func:`spans`.
"""

import pytest

from repro.gpusim import pricing
from repro.runtime.frameworks import get_profile
from repro.runtime.preload import PreloadExecutor
from repro.runtime.segment import SegmentCore
from tests.oracles import (
    run_segment_every_pass,
    scalar_flash_attention_time_table,
    scalar_kernel_time_table,
)

#: Wall-clock and replay observability fields, excluded from byte identity.
VOLATILE_DETAILS = {
    "sim_s", "pricing_hits", "pricing_misses", "replayed_iterations", "replayed_tokens",
}

#: The runtimes under test: FlashMem and one preloading baseline.
RUNTIMES = ("FlashMem", "MNN")


def runtime_cases(cases):
    """``pytest.param``s for ``(runtime, *case)`` over RUNTIMES x ``cases``.

    Ids are the case values joined by ``-`` (what stacked parametrize
    decorators print); FlashMem cases keep that bare id, the ids they had
    before runtime became a parameter, and other runtimes prefix theirs.
    """
    params = []
    for runtime in RUNTIMES:
        for case in cases:
            case_id = "-".join(str(v) for v in case)
            params.append(pytest.param(
                runtime, *case, id=case_id if runtime == "FlashMem" else f"{runtime}-{case_id}"
            ))
    return params


def run(runtime, fm, compiled, graph, scenario):
    """Simulate ``scenario``: FlashMem runs ``compiled``, a preloading
    baseline runs the unfused ``graph`` on the same device."""
    if runtime == "FlashMem":
        return fm.run(compiled, scenario=scenario)
    executor = PreloadExecutor(get_profile(runtime), compiled.device)
    return executor.run(graph, scenario=scenario, check_support=False)


def replay_on_off(monkeypatch, simulate):
    """``[fast, full]``: ``simulate()`` with segment replay, then with every
    pass simulated."""
    fast = simulate()
    with monkeypatch.context() as patch:
        patch.setattr(SegmentCore, "run_segment", run_segment_every_pass)
        full = simulate()
    return [fast, full]


def scalar_pricing(monkeypatch):
    """Price every kernel and attention call with one scalar call per row."""
    monkeypatch.setattr(pricing, "kernel_time_table", scalar_kernel_time_table)
    monkeypatch.setattr(pricing, "flash_attention_time_table", scalar_flash_attention_time_table)


def tables_by_replay(monkeypatch, simulate):
    """``simulate()`` under all four (cost tables, replay) combinations."""
    results = replay_on_off(monkeypatch, simulate)
    with monkeypatch.context() as patch:
        scalar_pricing(patch)
        results += replay_on_off(patch, simulate)
    return results


def spans(rows):
    """``(start, end, kind)`` rows merged into maximal same-kind runs that
    each start the instant the one before ends: the rows a bulk path logs
    (``segment._append_spans``) for one ``submit_fast`` row per item."""
    merged = []
    for start, end, kind in rows:
        if merged and merged[-1][2] == kind and merged[-1][1] == start:
            merged[-1] = (merged[-1][0], end, kind)
        else:
            merged.append((start, end, kind))
    return merged


def assert_timelines_identical(a, b):
    """Both memory columns equal byte for byte, dtypes included."""
    for column in ("times", "totals"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def assert_results_identical(fast, full):
    assert fast.model == full.model and fast.device == full.device
    assert fast.latency_ms == full.latency_ms
    assert fast.phases == full.phases
    assert_timelines_identical(fast.memory, full.memory)
    assert fast.peak_memory_bytes == full.peak_memory_bytes
    assert fast.avg_memory_bytes == full.avg_memory_bytes
    assert fast.energy_j == full.energy_j
    assert fast.avg_power_w == full.avg_power_w
    fast_details = {k: v for k, v in fast.details.items() if k not in VOLATILE_DETAILS}
    full_details = {k: v for k, v in full.details.items() if k not in VOLATILE_DETAILS}
    assert fast_details == full_details

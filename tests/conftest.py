"""Test-suite collection hooks and session-wide fixtures.

``benchsmoke``-marked tests (quick capped passes over the benchmark
suite, see ``tests/test_benchsmoke.py``) are skipped unless explicitly
selected with ``pytest -m benchsmoke`` — the tier-1 suite must stay fast
and dependency-light.  :func:`session_compile` shares FlashMem compiles
between the modules that simulate the same cells.
"""

import pytest

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.gpusim.device import get_device
from repro.graph.models import load_model
from repro.opg.problem import OpgConfig


def pytest_collection_modifyitems(config, items):
    markexpr = config.getoption("-m", default="")
    if markexpr and "benchsmoke" in markexpr:
        return
    skip = pytest.mark.skip(reason="benchsmoke suite: select with -m benchsmoke")
    for item in items:
        if "benchsmoke" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def session_compile():
    """``session_compile(model, device_name, ratio=None)``: a FlashMem
    compile at a 300-node window budget and the given target preload
    ratio, built on first use and shared by every module for the session.
    Tests only read these plans (runs memoize on them, nothing mutates
    them)."""
    fm = FlashMem(FlashMemConfig(opg=OpgConfig(max_nodes_per_window=300)))
    cache = {}

    def compiled(model, device_name, ratio=None):
        key = (model, device_name, ratio)
        if key not in cache:
            cache[key] = fm.compile(load_model(model), get_device(device_name),
                                    target_preload_ratio=ratio)
        return cache[key]

    return compiled

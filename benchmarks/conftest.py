"""Shared benchmark utilities.

Every benchmark wraps one experiment driver from ``repro.experiments``:
`pytest benchmarks/ --benchmark-only` regenerates each paper table/figure,
prints the rendered rows/series, and also saves them under ``results/`` so
the output survives pytest's capture.

A/B perf benchmarks (``test_compile_latency``, ``test_sim_throughput``)
measure each side in a *fresh subprocess* via :func:`ab_subprocess`: the
work is deterministic pure python, so the minimum of a few interleaved
CPU-time samples approximates the uncontended cost, and process isolation
keeps one side's allocation history (or a transient noisy neighbor on a
shared box) from skewing the other side.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR.parent / "results"

# Benchmarks import the solver oracles and window models from ``tests/``,
# which resolves from the repo root whether or not pytest runs as ``-m``.
if str(BENCH_DIR.parent) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR.parent))


def report(name: str, text: str) -> None:
    """Print a rendered experiment and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def emit_record(record: dict) -> None:
    """Child-process side of the A/B protocol: print one JSON record line."""
    print("BENCH_RECORD " + json.dumps(record))


def ab_subprocess(module: str, func: str, *args, timeout: float = 900.0) -> dict:
    """Run ``benchmarks/<module>.py::<func>(*args)`` in a fresh interpreter.

    The child runs with ``PYTHONPATH=[src, benchmarks, repo root]`` (the
    root makes the ``tests`` oracles importable) and ``cwd=benchmarks`` and
    must print exactly one ``BENCH_RECORD <json>``
    line via :func:`emit_record`; that record is returned.  ``args`` must
    round-trip through ``repr`` (strings, numbers, bools).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR), str(BENCH_DIR.parent)])
    call = ", ".join(repr(a) for a in args)
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module} as m; m.{func}({call})"],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(BENCH_DIR),
        check=False,
        timeout=timeout,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("BENCH_RECORD "):
            return json.loads(line[len("BENCH_RECORD "):])
    raise RuntimeError(
        f"{module}.{func}({call}) subprocess produced no BENCH_RECORD "
        f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment driver exactly once under pytest-benchmark.

    The drivers are deterministic, minutes-scale pipelines; multiple
    benchmarking rounds would only repeat identical work.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

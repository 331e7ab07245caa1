"""Reference implementations the production paths are checked against.

Nothing under ``src/`` imports these (``tests/test_src_imports.py``
enforces it).  Each production path has one implementation; tests and
benchmarks swap a reference in by monkeypatching the name the package
looks up at call time:

- LC-OPG's solver pieces, in ``repro.opg.lcopg``::

    monkeypatch.setattr(lcopg, "CpSolver", NaiveCpSolver)
    monkeypatch.setattr(lcopg, "edf_feasible", edf_feasible_reference)
    monkeypatch.setattr(lcopg, "prove_window", prove_window_reference)
    monkeypatch.setattr(lcopg, "WindowCache", ColdWindowCache)  # or cold_solver()

- scalar pricing of each row, in ``repro.gpusim.pricing``::

    monkeypatch.setattr(pricing, "kernel_time_table", scalar_kernel_time_table)
    monkeypatch.setattr(pricing, "flash_attention_time_table",
                        scalar_flash_attention_time_table)

- simulating every pass instead of replaying the steady state::

    monkeypatch.setattr(SegmentCore, "run_segment", run_segment_every_pass)

- the scalar replay loop, one instruction at a time, in place of the
  columnar replay core (a recorded trace replays either way)::

    replay_reference(core, trace, start_it, iterations, tag_prefix)
    # vs core._replay(segment._columns(trace), start_it, iterations, tag_prefix)

- staging weights one at a time instead of as columns, in
  ``repro.runtime``'s executors::

    monkeypatch.setattr(FlashMemExecutor, "_preload", preload_every_weight)
    monkeypatch.setattr(PreloadExecutor, "_init", init_every_weight)

- the exact-split GBT regime::

    monkeypatch.setattr(GradientBoostedTrees, "fit", fit_exact)

The rest are references compared against directly: ``validate_assignment``
(CP solutions), ``tree_nodewalk``/``ensemble_nodewalk`` (columnar GBT
predicts), ``capacity_bytes_oracle`` (batched capacities),
``kernel_program_time_ms``/``flash_attention_time_ms`` (priced tables),
``busy_intervals_reference`` (the queues' interval merge) and the
``*_bytes_reference``/``usage_at_reference`` row walks (timeline queries).
"""

from tests.oracles.capacity import (
    RegressionTree,
    capacity_bytes_oracle,
    ensemble_nodewalk,
    fit_exact,
    predict_latency_ms_oracle,
    tree_nodewalk,
)
from tests.oracles.cpsat import (
    Domains,
    NaiveCpSolver,
    objective_lower_bound,
    propagate,
    validate_assignment,
)
from tests.oracles.exact import edf_feasible_reference, prove_window_reference
from tests.oracles.lcopg import ColdWindowCache, cold_solver
from tests.oracles.sim import (
    average_bytes_reference,
    busy_intervals_reference,
    flash_attention_time_ms,
    init_every_weight,
    kernel_program_time_ms,
    peak_bytes_reference,
    preload_every_weight,
    replay_reference,
    run_segment_every_pass,
    scalar_flash_attention_time_table,
    scalar_kernel_time_table,
    timeline_rows,
    usage_at_reference,
)

__all__ = [
    "RegressionTree",
    "capacity_bytes_oracle",
    "ensemble_nodewalk",
    "fit_exact",
    "predict_latency_ms_oracle",
    "tree_nodewalk",
    "Domains",
    "NaiveCpSolver",
    "objective_lower_bound",
    "propagate",
    "validate_assignment",
    "edf_feasible_reference",
    "prove_window_reference",
    "ColdWindowCache",
    "cold_solver",
    "average_bytes_reference",
    "busy_intervals_reference",
    "flash_attention_time_ms",
    "init_every_weight",
    "kernel_program_time_ms",
    "peak_bytes_reference",
    "preload_every_weight",
    "replay_reference",
    "run_segment_every_pass",
    "scalar_flash_attention_time_table",
    "scalar_kernel_time_table",
    "timeline_rows",
    "usage_at_reference",
]

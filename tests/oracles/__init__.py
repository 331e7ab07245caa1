"""Reference implementations the production solver paths are checked against.

Nothing under ``src/`` imports these (``tests/test_src_imports.py``
enforces it).  Tests and benchmarks swap them into LC-OPG by
monkeypatching the names ``repro.opg.lcopg`` looks up at call time::

    monkeypatch.setattr(lcopg, "CpSolver", NaiveCpSolver)
    monkeypatch.setattr(lcopg, "edf_feasible", edf_feasible_reference)
    monkeypatch.setattr(lcopg, "prove_window", prove_window_reference)
"""

from tests.oracles.cpsat import Domains, NaiveCpSolver, objective_lower_bound, propagate
from tests.oracles.exact import edf_feasible_reference, prove_window_reference

__all__ = [
    "Domains",
    "NaiveCpSolver",
    "objective_lower_bound",
    "propagate",
    "edf_feasible_reference",
    "prove_window_reference",
]

"""Window-reuse oracle: a window cache that never hits.

Swapped in for ``repro.opg.lcopg.WindowCache``, which the solver looks up
when it is built, it turns every window of every solve into a cold solve:
the plan that window reuse must reproduce byte for byte.
"""

from __future__ import annotations

import pytest

from repro.opg import lcopg


class ColdWindowCache(lcopg.WindowCache):
    """A :class:`~repro.opg.lcopg.WindowCache` that misses every lookup and
    keeps nothing."""

    def lookup(self, core_key, soft_rounds_left):
        self.misses += 1
        return None

    def store(self, core_key, entry) -> None:
        pass


def cold_solver(config=None) -> lcopg.LcOpgSolver:
    """An :class:`~repro.opg.lcopg.LcOpgSolver` built with the cold cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcopg, "WindowCache", ColdWindowCache)
        return lcopg.LcOpgSolver(config)

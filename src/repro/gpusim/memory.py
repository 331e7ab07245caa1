"""Memory pools: which regions are live in unified and texture memory.

A pool only checks the executors' bookkeeping: every name is allocated
once and freed once, and ``in_use`` is the sum of the live sizes.  The
quantities Tables 1 and 8 and Figures 6 and 10 report — instantaneous,
peak and time-weighted-average footprints — come from the simulation's
delta log, integrated into a :class:`~repro.gpusim.timeline.MemoryTimeline`
(see :mod:`repro.gpusim.engine`).
"""

from __future__ import annotations

from typing import Dict, List


class OutOfMemoryError(Exception):
    """Raised when an allocation would exceed the device's RAM budget.

    Mirrors the paper's Figure 10 "device ran out of memory during
    initialization" empty bars.
    """

    def __init__(self, requested: int, in_use: int, budget: int) -> None:
        super().__init__(
            f"allocation of {requested / 1e6:.1f} MB exceeds budget "
            f"({in_use / 1e6:.1f} MB in use of {budget / 1e6:.1f} MB)"
        )
        self.requested = requested
        self.in_use = in_use
        self.budget = budget


class MemoryPool:
    """A named pool (unified memory or texture memory): live name -> bytes.

    Double allocation or double free of a name is an error — the executors
    are expected to manage lifetimes precisely, and sloppy accounting here
    would silently corrupt the memory results.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._live: Dict[str, int] = {}
        self.in_use = 0

    def contains(self, name: str) -> bool:
        return name in self._live

    def allocate(self, name: str, nbytes: int) -> None:
        """Allocate ``nbytes`` under ``name``."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if name in self._live:
            raise ValueError(f"{self.name}: {name!r} already allocated")
        self._live[name] = nbytes
        self.in_use += nbytes

    def free(self, name: str) -> int:
        """Free the allocation ``name``; returns its size."""
        try:
            nbytes = self._live.pop(name)
        except KeyError:
            raise ValueError(f"{self.name}: {name!r} not allocated") from None
        self.in_use -= nbytes
        return nbytes

    def free_all(self) -> None:
        """Release every live allocation (model teardown)."""
        self._live.clear()
        self.in_use = 0

    def live_names(self) -> List[str]:
        return list(self._live)

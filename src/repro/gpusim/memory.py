"""Memory pools: which regions are live in unified and texture memory.

A pool only checks the executors' bookkeeping: every name is allocated
once and freed once, and ``in_use`` is the sum of the live sizes.  The
quantities Tables 1 and 8 and Figures 6 and 10 report — instantaneous,
peak and time-weighted-average footprints — come from the simulation's
delta log, integrated into a :class:`~repro.gpusim.timeline.MemoryTimeline`
(see :mod:`repro.gpusim.engine`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence


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

    def allocate(self, name: str, nbytes: int) -> None:
        """Allocate ``nbytes`` under ``name``."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if name in self._live:
            raise ValueError(f"{self.name}: {name!r} already allocated")
        self._live[name] = nbytes
        self.in_use += nbytes

    def allocate_many(self, names: Sequence[str], sizes: Sequence[int]) -> None:
        """Allocate ``sizes[i]`` under ``names[i]`` for every ``i``, in one
        update.  Raises, allocating nothing, if a name is already live or
        repeats within the batch."""
        batch = dict(zip(names, sizes))
        if len(batch) != len(names) or not self._live.keys().isdisjoint(batch):
            seen = set(self._live)
            for name in names:
                if name in seen:
                    raise ValueError(f"{self.name}: {name!r} already allocated")
                seen.add(name)
        if min(batch.values(), default=0) < 0:
            raise ValueError("allocation size must be non-negative")
        self._live.update(batch)
        self.in_use += sum(batch.values())

    def free(self, name: str) -> int:
        """Free the allocation ``name``; returns its size."""
        try:
            nbytes = self._live.pop(name)
        except KeyError:
            raise ValueError(f"{self.name}: {name!r} not allocated") from None
        self.in_use -= nbytes
        return nbytes

    def free_all(self) -> List[int]:
        """Release every live allocation (model teardown); returns their
        sizes in allocation order."""
        sizes = list(self._live.values())
        self._live.clear()
        self.in_use = 0
        return sizes

    def live_names(self) -> List[str]:
        return list(self._live)

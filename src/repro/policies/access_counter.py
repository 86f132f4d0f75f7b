"""Uniform access-counter-based migration (Section II-B2).

Remote faults establish remote mappings; hardware counters track remote
accesses per 64 KB page group and migration only happens when a group's
counter reaches the static threshold (256 on Volta).
"""

from __future__ import annotations

from repro.constants import Scheme
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic, PlacementPolicy


class AccessCounterPolicy(PlacementPolicy):
    """Remote-map on fault, migrate at the counter threshold."""

    name = "access_counter"

    def initial_scheme(self) -> Scheme:
        """Fresh PTEs carry the AC scheme bits."""
        return Scheme.ACCESS_COUNTER

    def mechanic_for(self, page: PageInfo) -> Mechanic:
        """Every fault resolves by remote mapping + counters."""
        return Mechanic.ACCESS_COUNTER

    def describe(self) -> str:
        """Report-friendly one-liner."""
        return "uniform access-counter-based migration"

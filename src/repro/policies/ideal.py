"""The paper's Ideal bound (Section I).

Every read except the first cold touch of a page hits local memory, and
writes complete with zero NUMA latency.  Not realizable — used only to
show optimization headroom in Figures 1 and 17.
"""

from __future__ import annotations

from repro.constants import Scheme
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic, PlacementPolicy


class IdealPolicy(PlacementPolicy):
    """Upper bound: free replication, free writes."""

    name = "ideal"
    # The bound replicates for free with writable mappings everywhere.
    enforces_replica_protection = False

    def initial_scheme(self) -> Scheme:
        """Scheme bits are irrelevant to the Ideal mechanics."""
        return Scheme.ON_TOUCH

    def mechanic_for(self, page: PageInfo) -> Mechanic:
        """Every fault resolves with the free Ideal mechanics."""
        return Mechanic.IDEAL

    def describe(self) -> str:
        """Report-friendly one-liner."""
        return "ideal bound (local reads, zero-NUMA writes)"

"""GPS comparator (Muthukrishnan et al., MICRO 2021; Section VI-C2).

GPS tracks the *subscribers* of each page (GPUs that accessed it) and
proactively broadcasts fine-grained stores to every subscriber's local
replica, so reads are always local and writes never collapse.  The cost
the paper highlights is memory oversubscription: nearly every shared
page ends up replicated in every subscriber, blowing through the 70%
DRAM budget and causing evictions + re-subscriptions.
"""

from __future__ import annotations

from repro.constants import Scheme
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic, PlacementPolicy


class GpsPolicy(PlacementPolicy):
    """Publish-subscribe replication with store broadcast."""

    name = "gps"
    gps_semantics = True
    # Subscribers keep writable replicas; stores broadcast, never fault.
    enforces_replica_protection = False

    def initial_scheme(self) -> Scheme:
        """Replicated pages carry duplication scheme bits."""
        return Scheme.DUPLICATION

    def mechanic_for(self, page: PageInfo) -> Mechanic:
        """Every fault subscribes the requester."""
        return Mechanic.GPS

    def describe(self) -> str:
        """Report-friendly one-liner."""
        return "GPS publish-subscribe with fine-grained store broadcast"

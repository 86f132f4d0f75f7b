"""First-touch migration (Section VI-D).

Pins each page on the GPU that touches it first and serves every other
GPU through peer load/store remote mappings — no migrations ever.
"""

from __future__ import annotations

from repro.constants import Scheme
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic, PlacementPolicy


class FirstTouchPolicy(PlacementPolicy):
    """Pin on first touch; remote peer access afterwards."""

    name = "first_touch"

    def initial_scheme(self) -> Scheme:
        """Remote mappings behave like AC PTEs (sans counters)."""
        return Scheme.ACCESS_COUNTER

    def mechanic_for(self, page: PageInfo) -> Mechanic:
        """Every fault pins on first touch, then peer-maps."""
        return Mechanic.PEER_REMOTE

    def describe(self) -> str:
        """Report-friendly one-liner."""
        return "first-touch pinning with peer remote access"

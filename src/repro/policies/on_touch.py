"""Uniform on-touch migration (Section II-B1) — the paper's baseline."""

from __future__ import annotations

from repro.constants import Scheme
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic, PlacementPolicy


class OnTouchPolicy(PlacementPolicy):
    """Always migrate a faulting page to the requesting GPU."""

    name = "on_touch"

    def initial_scheme(self) -> Scheme:
        """On-touch pages start (and stay) with OT scheme bits."""
        return Scheme.ON_TOUCH

    def mechanic_for(self, page: PageInfo) -> Mechanic:
        """Every fault migrates the page to the requester."""
        return Mechanic.ON_TOUCH

    def describe(self) -> str:
        """Report-friendly one-liner."""
        return "uniform on-touch page migration"

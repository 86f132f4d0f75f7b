"""Uniform page duplication (Section II-B3).

Read faults replicate the page locally; writes to shared pages trigger
page write collapse through protection faults.
"""

from __future__ import annotations

from repro.constants import Scheme
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic, PlacementPolicy


class DuplicationPolicy(PlacementPolicy):
    """Replicate on read fault, collapse on write."""

    name = "duplication"

    def initial_scheme(self) -> Scheme:
        """Fresh PTEs carry the duplication scheme bits."""
        return Scheme.DUPLICATION

    def mechanic_for(self, page: PageInfo) -> Mechanic:
        """Every fault resolves by replicate-or-collapse."""
        return Mechanic.DUPLICATION

    def describe(self) -> str:
        """Report-friendly one-liner."""
        return "uniform page duplication with write collapse"

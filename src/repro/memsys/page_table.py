"""Local (per-GPU) and centralized (host) page tables.

Each GPU keeps a *local page table* translating VPNs it has faulted on;
an entry points either at local memory or — under access-counter style
schemes — at a remote GPU's memory.  The UVM driver keeps the
*centralized page table* with the authoritative :class:`PageInfo` for
every page (Section II-A).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator

from repro.constants import Scheme
from repro.memsys.page import PageInfo


@dataclasses.dataclass(slots=True)
class LocalPTE:
    """One translation in a GPU's local page table.

    ``location`` is the node whose DRAM the translation points at (the
    GPU itself for local pages and replicas, another GPU for remote
    mappings).  ``writable`` is false for read-only duplicates, so a
    write raises a page protection fault (Section II-B3).
    """

    location: int
    writable: bool


class LocalPageTable:
    """Per-GPU page table with O(1) dict-backed lookup."""

    def __init__(self, gpu_id: int) -> None:
        self.gpu_id = gpu_id
        #: VPN -> translation.  The UVM driver's eviction shoot-down
        #: probes every GPU's table, so it reads this dict directly.
        self.entries: Dict[int, LocalPTE] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self.entries

    def lookup(self, vpn: int) -> LocalPTE | None:
        """Return the translation for ``vpn`` or None (local page fault)."""
        return self.entries.get(vpn)

    def map(self, vpn: int, location: int, writable: bool) -> None:
        """Install or update a translation."""
        self.entries[vpn] = LocalPTE(location, writable)

    def invalidate(self, vpn: int) -> bool:
        """Drop a translation; returns True if one was present."""
        return self.entries.pop(vpn, None) is not None

    def mapped_vpns(self) -> Iterator[int]:
        """Iterate the VPNs with live translations."""
        return iter(self.entries)


class CentralPageTable:
    """The UVM driver's authoritative page table.

    Pages are materialized lazily on first touch with the policy's
    initial scheme; ``default_scheme`` is what a fresh PTE's scheme bits
    carry before any GRIT decision.
    """

    def __init__(self, default_scheme: Scheme = Scheme.ON_TOUCH) -> None:
        self.default_scheme = default_scheme
        self._pages: Dict[int, PageInfo] = {}

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._pages

    def get(self, vpn: int) -> PageInfo:
        """Fetch (creating on first touch) the page record for ``vpn``."""
        page = self._pages.get(vpn)
        if page is None:
            page = PageInfo(vpn=vpn, scheme=self.default_scheme)
            self._pages[vpn] = page
        return page

    def peek(self, vpn: int) -> PageInfo | None:
        """Fetch without materializing — used by neighbor prediction."""
        return self._pages.get(vpn)

    def pages(self) -> Iterator[PageInfo]:
        """Iterate every materialized page record."""
        return iter(self._pages.values())

"""Host-side page state tracked by the centralized page table."""

from __future__ import annotations

import dataclasses

from repro.constants import HOST_NODE, GroupBits, Scheme


@dataclasses.dataclass(slots=True)
class PageInfo:
    """Authoritative state of one virtual page, as the UVM driver sees it.

    ``owner`` is the node holding the authoritative copy (a GPU id, or
    :data:`~repro.constants.HOST_NODE` before first touch).  ``replicas``
    are GPUs holding read-only duplicates (page duplication / GPS).
    ``scheme`` and ``group`` mirror the PTE scheme/group bits that GRIT
    maintains (Figure 14); uniform policies simply never change them.
    """

    vpn: int
    owner: int = HOST_NODE
    replicas: set[int] = dataclasses.field(default_factory=set)
    scheme: Scheme = Scheme.ON_TOUCH
    group: GroupBits = GroupBits.SINGLE
    #: Set once any GPU writes the page (clears on scheme-change epochs
    #: only through the PA-Table, not here; this is the whole-run view).
    ever_written: bool = False
    #: Dirty relative to the host's copy (write-back cost on eviction).
    dirty: bool = False

    @property
    def placed(self) -> bool:
        """True once the page has left the host (first touch happened)."""
        return self.owner != HOST_NODE

    def holders(self) -> set[int]:
        """All GPUs with a readable copy (owner + replicas)."""
        nodes = set(self.replicas)
        if self.owner != HOST_NODE:
            nodes.add(self.owner)
        return nodes

    def is_local_to(self, gpu: int) -> bool:
        """True if ``gpu`` can satisfy reads from its own DRAM."""
        return self.owner == gpu or gpu in self.replicas

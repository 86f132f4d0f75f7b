"""Neighboring-Aware Prediction (Section V-D).

Consecutive pages tend to share access attributes (Figures 6-8), so when
one page's scheme changes, GRIT checks its aligned 8-page neighborhood:
if more than half of those pages already use the newly selected scheme,
the scheme is propagated to all eight and they are *promoted* into a
group (group bits "01" on the base page).  Groups recursively combine
8-at-a-time up to 512 pages (one 2 MB page-table page).  A scheme change
inside an existing group *degrades* it back into eight smaller groups,
with the affected subgroup degraded further.

All group state lives in the PTE group bits of each group's base page,
mirrored here in :class:`PageInfo.group`; the checks run in the
background (no latency charge) as the paper specifies.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from repro.constants import GROUP_FANOUT, GroupBits, Scheme
from repro.errors import ConfigError
from repro.memsys.address import AddressSpace
from repro.memsys.page_table import CentralPageTable


class NeighborOutcome(NamedTuple):
    """Effects of one scheme change on the surrounding groups."""

    #: Pages whose scheme bits were rewritten by propagation, with the
    #: scheme they had before (the driver collapses replicas of pages
    #: leaving duplication).
    propagated: Tuple[Tuple[int, Scheme], ...]
    promotions: int
    degradations: int


_EMPTY_OUTCOME = NeighborOutcome(propagated=(), promotions=0, degradations=0)

_STEP_DOWN = {
    GroupBits.GROUP_512: GroupBits.GROUP_64,
    GroupBits.GROUP_64: GroupBits.GROUP_8,
    GroupBits.GROUP_8: GroupBits.SINGLE,
}


class NeighboringAwarePredictor:
    """Group promotion/degradation over the centralized page table."""

    def __init__(
        self, page_table: CentralPageTable, max_group_pages: int = 512
    ) -> None:
        if max_group_pages not in (1, 8, 64, 512):
            raise ConfigError("max_group_pages must be one of 1/8/64/512")
        self._pt = page_table
        self.max_group_pages = max_group_pages

    def on_scheme_change(
        self, vpn: int, new_scheme: Scheme, old_scheme: Scheme
    ) -> NeighborOutcome:
        """React to ``vpn`` switching from ``old_scheme`` to ``new_scheme``.

        When the newly decided scheme equals the previous one (only
        possible for access-counter migration) the paper skips the group
        check entirely to avoid promotion/degradation ping-pong.
        """
        if new_scheme == old_scheme or self.max_group_pages == 1:
            return _EMPTY_OUTCOME
        degradations = self._degrade_containing_group(vpn)
        propagated, promotions = self._try_promote(vpn, new_scheme)
        return NeighborOutcome(
            propagated=tuple(propagated),
            promotions=promotions,
            degradations=degradations,
        )

    def containing_group(self, vpn: int) -> tuple[int, GroupBits]:
        """Base VPN and size of the group currently containing ``vpn``."""
        ladder = (GroupBits.GROUP_512, GroupBits.GROUP_64, GroupBits.GROUP_8)
        for bits in ladder:
            pages = bits.page_count
            if pages > self.max_group_pages:
                continue
            base = AddressSpace.group_base(vpn, pages)
            page = self._pt.peek(base)
            if page is not None and page.group == bits:
                return base, bits
        return vpn, GroupBits.SINGLE

    def group_scheme_of(self, vpn: int) -> Scheme | None:
        """Scheme pre-set for ``vpn`` by a group it belongs to, if any."""
        base, bits = self.containing_group(vpn)
        if bits is GroupBits.SINGLE:
            return None
        page = self._pt.peek(base)
        return page.scheme if page is not None else None

    def _degrade_containing_group(self, vpn: int) -> int:
        """Split any group containing ``vpn`` down to singles around it."""
        _, bits = self.containing_group(vpn)
        if bits is GroupBits.SINGLE:
            return 0
        degradations = 0
        while bits is not GroupBits.SINGLE:
            pages = bits.page_count
            base = AddressSpace.group_base(vpn, pages)
            sub_bits = _STEP_DOWN[bits]
            if sub_bits is GroupBits.SINGLE:
                # An 8-page group with a divergent member: every page
                # becomes a single ("00").
                for member in range(base, base + pages):
                    self._pt.get(member).group = GroupBits.SINGLE
            else:
                sub_pages = sub_bits.page_count
                affected = AddressSpace.group_base(vpn, sub_pages)
                for sub_base in range(base, base + pages, sub_pages):
                    page = self._pt.get(sub_base)
                    # The subgroup containing the divergent page keeps
                    # degrading on the next iteration; the other seven
                    # remain intact groups one rung smaller.
                    page.group = (
                        GroupBits.SINGLE if sub_base == affected else sub_bits
                    )
            degradations += 1
            bits = sub_bits
        return degradations

    def _try_promote(
        self, vpn: int, scheme: Scheme
    ) -> tuple[List[Tuple[int, Scheme]], int]:
        """Promote upward while more than half the neighbors agree."""
        propagated: List[Tuple[int, Scheme]] = []
        promotions = 0
        level_pages = GROUP_FANOUT
        while level_pages <= self.max_group_pages:
            base = AddressSpace.group_base(vpn, level_pages)
            if not self._majority_agrees(base, level_pages, scheme):
                break
            for member in range(base, base + level_pages):
                page = self._pt.get(member)
                if page.scheme != scheme:
                    propagated.append((member, page.scheme))
                    page.scheme = scheme
                page.group = GroupBits.SINGLE
            self._pt.get(base).group = GroupBits.for_page_count(level_pages)
            promotions += 1
            level_pages *= GROUP_FANOUT
        return propagated, promotions

    def _majority_agrees(
        self, base: int, level_pages: int, scheme: Scheme
    ) -> bool:
        """More than half of the 8 members/subgroups match ``scheme``.

        At the 8-page rung the members are individual pages; above it
        they are the 8 subgroups, which only count when they are intact
        groups (correct group bits on their base) using ``scheme``.
        """
        matches = 0
        if level_pages == GROUP_FANOUT:
            for member in range(base, base + level_pages):
                page = self._pt.peek(member)
                if page is not None and page.scheme == scheme:
                    matches += 1
        else:
            sub_pages = level_pages // GROUP_FANOUT
            sub_marker = GroupBits.for_page_count(sub_pages)
            for sub_base in range(base, base + level_pages, sub_pages):
                page = self._pt.peek(sub_base)
                if (
                    page is not None
                    and page.group == sub_marker
                    and page.scheme == scheme
                ):
                    matches += 1
        return matches * 2 > GROUP_FANOUT

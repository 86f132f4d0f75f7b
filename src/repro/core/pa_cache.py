"""The hardware Page Attribute Cache (PA-Cache, Section V-C).

A 64-entry, 4-way set-associative cache in front of the PA-Table.  The
set index is the lower 4 bits of the VPN; the tag is the remaining upper
bits (the paper's "virtual page tag").  Replacement is LRU, the write
policy is write-allocate + write-back: entries are updated in the cache
and only reach the PA-Table when evicted (or deleted on scheme change).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.config import check_pa_cache_geometry
from repro.core.pa_table import PAEntry, PATable


class PACache:
    """Set-associative write-back cache over :class:`PATable`."""

    def __init__(
        self, backing: PATable, entries: int = 64, ways: int = 4
    ) -> None:
        check_pa_cache_geometry(entries, ways)
        sets = entries // ways
        self.backing = backing
        self._table = backing.entries
        self.ways = ways
        self._set_mask = sets - 1
        self._sets: List[OrderedDict[int, PAEntry]] = [
            OrderedDict() for _ in range(sets)
        ]
        self.hits = 0
        self.misses = 0
        self.table_fills = 0
        #: Evictions/flushes of entries *modified* since fill — the
        #: write-allocate + write-back traffic the paper accounts for.
        #: Clean victims restore the table copy silently.
        self.writebacks = 0
        #: Entries dropped by :meth:`delete` (scheme changes).
        self.deletes = 0

    def access(self, vpn: int) -> tuple[PAEntry, bool]:
        """Look up (allocating as needed) the entry for a faulting page.

        Returns ``(entry, cache_hit)``.  On a miss the PA-Table is
        consulted: a found entry is brought into the cache
        (write-allocate); otherwise a fresh entry is registered directly
        in the cache, to be written back on eviction.  Most faults
        miss, so the fill and the victim's write-back run inline.
        """
        entries = self._sets[vpn & self._set_mask]
        entry = entries.get(vpn)
        if entry is not None:
            entries.move_to_end(vpn)
            self.hits += 1
            return entry, True
        self.misses += 1
        table = self._table
        entry = table.pop(vpn, None)
        if entry is None:
            entry = PAEntry(vpn)
        else:
            self.table_fills += 1
            # Fresh from the backing table: clean until modified.
            entry.dirty = False
        if len(entries) >= self.ways:
            # Write-back: a clean victim matches what the table last
            # saw (or is an untouched all-zero entry, which carries no
            # information), so restoring it is free; only entries
            # modified since fill are write-back traffic.
            _, victim = entries.popitem(last=False)
            if victim.dirty:
                victim.dirty = False
                self.writebacks += 1
            table[victim.vpn] = victim
        entries[vpn] = entry
        return entry, False

    def delete(self, vpn: int) -> None:
        """Drop an entry from cache *and* table (scheme change fired)."""
        cached = self._sets[vpn & self._set_mask].pop(vpn, None)
        removed = self.backing.remove(vpn)
        if cached is not None or removed is not None:
            self.deletes += 1

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def flush_to_table(self) -> None:
        """Write every cached entry back (used by tests/inspection)."""
        for entries in self._sets:
            for victim in entries.values():
                if victim.dirty:
                    victim.dirty = False
                    self.writebacks += 1
                self._table[victim.vpn] = victim
            entries.clear()

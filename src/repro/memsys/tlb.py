"""Set-associative TLB models with LRU replacement.

Geometry follows Table I: a 32-entry fully-associative L1 TLB (1-cycle
lookup) and a 512-entry 16-way L2 TLB (10-cycle lookup) shared by the
GPU's compute units.  Entries cache the *local* page-table translation,
so a TLB hit still distinguishes local from remote data locations and
read-only duplicate mappings (writes to those raise protection faults
even on a TLB hit).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.config import TLBConfig
from repro.memsys.page_table import LocalPTE


class SetAssociativeTLB:
    """One TLB level: per-set LRU over :class:`LocalPTE` payloads."""

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        #: Per-set LRU dicts, indexed by ``vpn & set_mask``.  Public
        #: because the engine's fused steady-access check probes and
        #: promotes L1 entries directly, without a method call.
        self.sets: List[OrderedDict[int, LocalPTE]] = [
            OrderedDict() for _ in range(config.sets)
        ]
        self.set_mask = config.sets - 1
        self.hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> LocalPTE | None:
        """Probe the TLB; promotes the entry to MRU on a hit."""
        entries = self.sets[vpn & self.set_mask]
        entry = entries.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(vpn)
        self.hits += 1
        return entry

    def peek(self, vpn: int) -> LocalPTE | None:
        """Probe without touching LRU order or hit/miss counters.

        The steady-state fast path uses this to *verify* that a run of
        accesses would hit before committing to batch pricing; the
        statistical effects of the verified hits are applied afterwards
        in bulk (``hits`` bump plus :meth:`promote` per unique page).
        """
        return self.sets[vpn & self.set_mask].get(vpn)

    def promote(self, vpn: int) -> None:
        """MRU-promote an entry known to be resident (bulk fast path).

        Raises ``KeyError`` when the entry is absent — callers must
        have verified residency with :meth:`peek` first.
        """
        self.sets[vpn & self.set_mask].move_to_end(vpn)

    def insert(self, vpn: int, pte: LocalPTE) -> None:
        """Fill an entry, evicting the set's LRU victim if full."""
        entries = self.sets[vpn & self.set_mask]
        if vpn in entries:
            entries.move_to_end(vpn)
            entries[vpn] = pte
            return
        if len(entries) >= self.config.ways:
            entries.popitem(last=False)
        entries[vpn] = pte

    def invalidate(self, vpn: int) -> bool:
        """Shootdown of one translation; True if it was cached."""
        return self.sets[vpn & self.set_mask].pop(vpn, None) is not None

    def flush(self) -> None:
        """Full flush (pipeline drain during migration/collapse)."""
        # Between flushes most sets of a large TLB stay empty; filter()
        # skips them without a Python-level step each.
        for entries in filter(None, self.sets):
            entries.clear()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self.sets)


class TLBHierarchy:
    """L1 + L2 TLB pair for one GPU with combined lookup accounting."""

    def __init__(self, l1: TLBConfig, l2: TLBConfig) -> None:
        self.l1 = SetAssociativeTLB(l1)
        self.l2 = SetAssociativeTLB(l2)

    def lookup(self, vpn: int) -> tuple[LocalPTE | None, int, bool]:
        """Probe L1 then L2.

        Returns ``(pte, latency, l2_missed)`` where ``pte`` is None on a
        full miss and ``l2_missed`` flags that a page-table walk is
        needed (the event Figure 19 buckets scheme usage by).
        """
        latency = self.l1.config.lookup_latency
        pte = self.l1.lookup(vpn)
        if pte is not None:
            return pte, latency, False
        latency += self.l2.config.lookup_latency
        pte = self.l2.lookup(vpn)
        if pte is not None:
            self.l1.insert(vpn, pte)
            return pte, latency, False
        return None, latency, True

    def fill(self, vpn: int, pte: LocalPTE) -> None:
        """Install a translation in both levels after a walk/fault."""
        self.l2.insert(vpn, pte)
        self.l1.insert(vpn, pte)

    def invalidate(self, vpn: int) -> None:
        """Shootdown of one translation in both levels."""
        self.l1.invalidate(vpn)
        self.l2.invalidate(vpn)

    def flush(self) -> None:
        """Full flush of both levels."""
        self.l1.flush()
        self.l2.flush()

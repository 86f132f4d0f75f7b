"""Fault-Aware Initiator (Section V-B).

Counts local page faults and page protection faults per page via the
PA-Cache/PA-Table pair, and signals when a page has reached the fault
threshold so a scheme change should be initiated.  The latency cost of
the PA path is also computed here: with the PA-Cache present, lookups
hide under the page-table walk; without it (the Figure 20 ablation),
every fault pays a PA-Table memory access worth of bandwidth contention.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.config import GritConfig, LatencyModel
from repro.constants import FaultKind
from repro.core.pa_cache import PACache
from repro.core.pa_table import PAEntry, PATable


class InitiatorOutcome(NamedTuple):
    """Result of funnelling one fault through the initiator."""

    #: True when the fault counter reached the threshold; the entry has
    #: already been deleted and the caller must re-decide the scheme.
    threshold_reached: bool
    #: The page's read/write bit at decision time (0 when the threshold
    #: was not reached).
    rw_bit: int
    #: Extra cycles this fault spends on the PA path (not hidden under
    #: the page-table walk).
    extra_latency: int


class FaultAwareInitiator:
    """Per-fault PA bookkeeping and threshold detection."""

    def __init__(self, config: GritConfig, latency: LatencyModel) -> None:
        self.config = config
        self.pa_table = PATable()
        self.pa_cache: PACache | None = None
        if config.use_pa_cache:
            self.pa_cache = PACache(
                self.pa_table,
                entries=config.pa_cache_entries,
                ways=config.pa_cache_ways,
            )
            # Cache hits and the single PA-Table access on a miss are
            # both hidden under the 2-3 memory accesses of the page-table
            # walk (Section V-C); only the tiny lookup cost can surface.
            self.hit_latency = 0
            self.miss_latency = latency.pa_cache_lookup
        else:
            # Without the PA-Cache, each fault's PA-Table read-modify-
            # write contends for memory bandwidth (Figure 20 ablation).
            self.hit_latency = latency.pa_table_memory_access
            self.miss_latency = latency.pa_table_memory_access
        #: Every PA-path charge a fault can pay.
        self.charges: Tuple[int, ...] = tuple(
            sorted({self.hit_latency, self.miss_latency})
        )
        #: The outcome of a fault below the threshold, one per charge,
        #: shared by every such fault.
        self._quiet: Dict[int, InitiatorOutcome] = {
            charge: InitiatorOutcome(
                threshold_reached=False, rw_bit=0, extra_latency=charge
            )
            for charge in self.charges
        }
        self.faults_observed = 0
        self.thresholds_fired = 0

    def observe_fault(
        self, vpn: int, kind: FaultKind, is_write: bool | None = None
    ) -> InitiatorOutcome:
        """Record one local page fault or page protection fault.

        ``is_write`` is the faulting access's type, which is what sets
        the PA entry's read/write bit ("the read/write bit is set as the
        requested page attribute", Section V-C); it defaults to the
        fault kind for callers that don't distinguish.
        """
        self.faults_observed += 1
        if is_write is None:
            is_write = kind is FaultKind.PAGE_PROTECTION_FAULT
        cache = self.pa_cache
        if cache is not None:
            entry, hit = cache.access(vpn)
            extra = self.hit_latency if hit else self.miss_latency
        else:
            entry = self.pa_table.take(vpn)
            if entry is None:
                entry = PAEntry(vpn=vpn)
            self.pa_table.insert(entry)
            extra = self.miss_latency
        entry.record_fault(is_write)
        if entry.fault_counter < self.config.fault_threshold:
            return self._quiet[extra]
        if cache is not None:
            cache.delete(vpn)
        else:
            self.pa_table.remove(vpn)
        self.thresholds_fired += 1
        return InitiatorOutcome(
            threshold_reached=True, rw_bit=entry.rw_bit, extra_latency=extra
        )

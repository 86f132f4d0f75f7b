"""Event counters: faults, migrations, duplications, scheme usage.

These back Figures 18 (page fault counts) and 19 (the per-scheme share
of accesses that miss the L2 TLB under GRIT), plus auxiliary counts the
comparison sections report (evictions for the GPS study, migration
counts for Griffin).
"""

from __future__ import annotations

from typing import Dict

from repro.constants import FaultKind, Scheme

#: Bound once: on CPython 3.11, loading an enum member off its class
#: costs ~150 ns, and every fault is tallied.
_LOCAL_FAULT = FaultKind.LOCAL_PAGE_FAULT


class EventCounters:
    """Simulation-wide event counts."""

    def __init__(self) -> None:
        self.accesses = 0
        self.reads = 0
        self.writes = 0
        self.l2_tlb_misses = 0
        self.local_page_faults = 0
        self.protection_faults = 0
        self.migrations = 0
        self.duplications = 0
        self.write_collapses = 0
        self.evictions = 0
        self.remote_accesses = 0
        self.scheme_changes = 0
        self.group_promotions = 0
        self.group_degradations = 0
        self.prefetches = 0
        #: Fault batches drained through the batched service path
        #: (zero when ``fault_batch_size`` is 1: the inline path never
        #: forms batches).
        self.fault_batches = 0
        #: Duplicate (gpu, vpn) deposits coalesced away during batch
        #: drains; each saved a redundant fault resolution.
        self.coalesced_faults = 0
        #: Steady-state runs priced by the vectorized fast path (see
        #: repro.sim.fastpath); zero when the fast path is off.
        self.fastpath_runs = 0
        #: Accesses those runs covered.  ``accesses -
        #: fastpath_accesses`` went through the scalar pipeline.
        self.fastpath_accesses = 0
        #: Accesses that missed the L2 TLB, bucketed by the scheme the
        #: touched page was using at that moment (Figure 19).
        self.scheme_usage: Dict[Scheme, int] = {s: 0 for s in Scheme}
        #: Faults attributed to the requesting GPU (imbalance analysis).
        self.per_gpu_faults: Dict[int, int] = {}

    @property
    def total_faults(self) -> int:
        """Local page faults + page protection faults (Figure 18)."""
        return self.local_page_faults + self.protection_faults

    def record_fault(self, kind: FaultKind, gpu: int | None = None) -> None:
        """Tally one UVM fault, optionally attributed to a GPU."""
        if kind is _LOCAL_FAULT:
            self.local_page_faults += 1
        else:
            self.protection_faults += 1
        if gpu is not None:
            self.per_gpu_faults[gpu] = self.per_gpu_faults.get(gpu, 0) + 1

    def fault_imbalance(self) -> float:
        """Max-to-mean ratio of per-GPU fault counts (1.0 = balanced)."""
        if not self.per_gpu_faults:
            return 1.0
        counts = list(self.per_gpu_faults.values())
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    def record_scheme_usage(self, scheme: Scheme) -> None:
        """Tally one L2-TLB-missing access under its current scheme."""
        self.l2_tlb_misses += 1
        self.scheme_usage[scheme] += 1

    def scheme_usage_fractions(self) -> Dict[str, float]:
        """Scheme short-name -> fraction of L2-TLB-missing accesses."""
        total = sum(self.scheme_usage.values())
        if total == 0:
            return {scheme.short_name: 0.0 for scheme in Scheme}
        return {
            scheme.short_name: count / total
            for scheme, count in self.scheme_usage.items()
        }

    def as_dict(self) -> Dict[str, int]:
        """Flat integer view of every counter."""
        return {
            "accesses": self.accesses,
            "reads": self.reads,
            "writes": self.writes,
            "l2_tlb_misses": self.l2_tlb_misses,
            "local_page_faults": self.local_page_faults,
            "protection_faults": self.protection_faults,
            "total_faults": self.total_faults,
            "migrations": self.migrations,
            "duplications": self.duplications,
            "write_collapses": self.write_collapses,
            "evictions": self.evictions,
            "remote_accesses": self.remote_accesses,
            "scheme_changes": self.scheme_changes,
            "group_promotions": self.group_promotions,
            "group_degradations": self.group_degradations,
            "prefetches": self.prefetches,
            "fault_batches": self.fault_batches,
            "coalesced_faults": self.coalesced_faults,
            "fastpath_runs": self.fastpath_runs,
            "fastpath_accesses": self.fastpath_accesses,
        }

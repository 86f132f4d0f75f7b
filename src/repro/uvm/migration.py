"""Page placement / migration / eviction mechanics (Section II-B1).

Migration follows the paper's sequence: flush the owning GPU's pipeline,
caches, and TLBs; broadcast translation invalidations; move the page;
re-map at the destination.  Placement (first touch from the host) is the
PCIe variant of the same flow without a GPU-side flush.  Evictions model
oversubscription: installing into a full DRAM pops the LRU frame, which
may demote a page back to the host (with a dirty write-back) or drop a
replica.
"""

from __future__ import annotations

from repro.constants import HOST_NODE, LatencyCategory
from repro.stats.events import EventKind
from repro.memsys.dram import EvictionResult
from repro.memsys.page import PageInfo
from repro.uvm.machine import MachineState


class MigrationEngine:
    """Moves authoritative page copies between nodes."""

    def __init__(self, machine: MachineState) -> None:
        self.machine = machine
        #: Each GPU's local page table, probed on every eviction.
        self._page_tables = [gpu.page_table.entries for gpu in machine.gpus]

    def place_from_host(
        self,
        page: PageInfo,
        dest: int,
        category: LatencyCategory,
        flush_scale: float = 1.0,
        writable: bool = True,
        now: int = 0,
    ) -> int:
        """First touch: move the page from host memory to ``dest``.

        ``writable=False`` is duplication's copy-on-write placement: a
        read fault maps the page read-only so the first write raises a
        protection fault and upgrades through the UVM driver.
        """
        m = self.machine
        cycles = m.kernel.transfer(
            HOST_NODE, dest, m.config.page_size, now
        )
        cycles += self.install_frame(
            dest, page.vpn, False, category, flush_scale,
            now=now + cycles,
        )
        page.owner = dest
        page.dirty = False
        m.gpus[dest].page_table.map(page.vpn, dest, writable=writable)
        m.breakdown.charge(category, cycles)
        return cycles

    def migrate(
        self,
        page: PageInfo,
        dest: int,
        category: LatencyCategory = LatencyCategory.PAGE_MIGRATION,
        flush_scale: float = 1.0,
        now: int = 0,
    ) -> int:
        """Move the authoritative copy of ``page`` to GPU ``dest``."""
        m = self.machine
        if page.owner == HOST_NODE:
            m.counters.migrations += 1
            cycles = self.place_from_host(
                page, dest, category, flush_scale, now=now
            )
            if m.event_log is not None:
                m.event_log.emit(
                    EventKind.MIGRATION,
                    page.vpn,
                    HOST_NODE,
                    detail=dest,
                    cycles=cycles,
                )
            return cycles
        if page.owner == dest:
            # Already local; just (re-)establish the mapping.
            m.gpus[dest].page_table.map(
                page.vpn, dest, writable=not page.replicas
            )
            return 0
        kernel = m.kernel
        old_owner = page.owner
        cycles = 0
        # 1. Drain the owning GPU's pipeline and flush caches/TLBs.  The
        # requester waits for it and the owner loses the time too.
        flush = kernel.pipeline_flush(flush_scale)
        m.gpus[old_owner].flush_pipeline_and_tlbs()
        m.gpus[old_owner].clock += flush
        cycles += flush
        # 2. Invalidate every stale translation (remote mappings point at
        # the old owner; replicas are dropped as part of the move).
        for replica in sorted(page.replicas):
            m.gpus[replica].dram.release(page.vpn)
        page.replicas.clear()
        invalidated = m.invalidate_everywhere(page.vpn)
        cycles += kernel.invalidation(invalidated, flush_scale)
        # 3. Transfer the page and install it at the destination.
        m.gpus[old_owner].dram.release(page.vpn)
        cycles += kernel.transfer(
            old_owner, dest, m.config.page_size, now + cycles
        )
        cycles += self.install_frame(
            dest, page.vpn, page.dirty, category, flush_scale,
            now=now + cycles,
        )
        page.owner = dest
        m.gpus[dest].page_table.map(page.vpn, dest, writable=True)
        m.counters.migrations += 1
        m.access_counters.reset_group(page.vpn)
        m.breakdown.charge(category, cycles)
        if m.event_log is not None:
            m.event_log.emit(
                EventKind.MIGRATION,
                page.vpn,
                old_owner,
                detail=dest,
                cycles=cycles,
            )
        return cycles

    def install_frame(
        self,
        gpu: int,
        vpn: int,
        dirty: bool,
        category: LatencyCategory,
        flush_scale: float = 1.0,
        now: int = 0,
    ) -> int:
        """Claim a DRAM frame on ``gpu``, evicting the LRU page if full.

        Returned cycles are *not* charged to the breakdown here; the
        calling mechanic charges its full cost once under ``category``.
        """
        eviction = self.machine.gpus[gpu].dram.install(vpn, dirty)
        if eviction is None:
            return 0
        return self._handle_eviction(gpu, eviction, flush_scale, now)

    def _handle_eviction(
        self,
        gpu: int,
        eviction: EvictionResult,
        flush_scale: float,
        now: int,
    ) -> int:
        """Demote the evicted page and fix up mappings and ownership."""
        m = self.machine
        vpn = eviction.evicted_vpn
        victim = m.central_pt.peek(vpn)
        m.counters.evictions += 1
        if m.event_log is not None:
            m.event_log.emit(EventKind.EVICTION, vpn, gpu)
        cycles = 0
        if victim is None:
            return cycles
        if victim.owner == gpu:
            # Shoot down only the translations that point at the evicted
            # frame (the owner's own mapping and any remote mappings).
            # Replica holders' self-mappings reference their own frames
            # and stay valid — under GPS that keeps them writable.
            invalidated = 0
            for node, entries in zip(m.gpus, self._page_tables):
                pte = entries.get(vpn)
                if pte is not None and pte.location == gpu:
                    del entries[vpn]
                    node.tlbs.invalidate(vpn)
                    invalidated += 1
            cycles += m.kernel.invalidation(invalidated, flush_scale)
            if victim.replicas:
                # Another GPU already holds the data; promote it to
                # owner instead of falling back to the host.
                new_owner = min(victim.replicas)
                victim.replicas.discard(new_owner)
                victim.owner = new_owner
                promoted = m.gpus[new_owner].page_table.lookup(vpn)
                if promoted is None:
                    m.gpus[new_owner].page_table.map(
                        vpn, new_owner, writable=not victim.replicas
                    )
                elif not victim.replicas and not promoted.writable:
                    # Sole holder now: write permission comes back.
                    promoted.writable = True
                    m.gpus[new_owner].tlbs.invalidate(vpn)
            else:
                victim.owner = HOST_NODE
                if eviction.was_dirty:
                    cycles += m.kernel.transfer(
                        gpu, HOST_NODE, m.config.page_size, now + cycles
                    )
                victim.dirty = False
            m.access_counters.reset_group(vpn)
        elif gpu in victim.replicas:
            victim.replicas.discard(gpu)
            m.gpus[gpu].invalidate_translation(vpn)
            if not victim.replicas and victim.owner != HOST_NODE:
                # Last replica gone: the owner's mapping can be writable
                # again (no more copies to keep coherent).
                owner_pte = m.gpus[victim.owner].page_table.lookup(vpn)
                if owner_pte is not None:
                    owner_pte.writable = True
                    m.gpus[victim.owner].tlbs.invalidate(vpn)
        return cycles

"""Engine-side stages of the fault-service pipeline.

The access path is an explicit four-stage pipeline:

1. **Translation** (:class:`TranslationStage`): pull the next access
   off the GPU's stream cursor, fold it to the configured page size,
   and walk the translation path (L1 TLB -> L2 TLB -> page-table
   walk), producing a plain ``(cycles, pte, l2_missed, page)`` tuple.
   With the fast path on, the engine probes the L1 itself and retires
   every hit, so the walk here starts only after an L1 miss.
2. **Fault buffering** (:class:`~repro.uvm.faults.FaultBuffer`):
   accesses whose translation is missing deposit a fault; with
   ``fault_batch_size == 1`` the deposit services immediately
   (the classic inline path), otherwise it parks.
3. **Fault service** (:class:`~repro.uvm.fault_service.FaultService`):
   the driver drains one GPU's buffer as a batch, coalescing
   duplicates and amortizing the host round trip.
4. **Data access**: the engine charges the data-access latency by
   where the page actually lives, priced by the timing kernel
   (:mod:`repro.sim.timing`) — flat :class:`AccessCosts` charges in
   the default mode, plus routed link and DRAM channel queueing in
   ``contention="queued"`` mode.

Stream cursors iterate the trace arrays in bounded chunks instead of
materializing whole per-GPU streams up front, which keeps the
simulator's memory at one trace copy plus a small window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.constants import LatencyCategory
from repro.sim.timing import AccessCosts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memsys.address import AddressSpace
    from repro.memsys.page import PageInfo
    from repro.memsys.page_table import LocalPTE
    from repro.sim.gpu import GpuNode
    from repro.uvm.machine import MachineState
    from repro.workloads.base import WorkloadTrace

__all__ = [
    "AccessCosts",
    "StreamCursor",
    "TranslationStage",
    "CURSOR_CHUNK",
]

#: Stream-cursor window: how many trace entries are materialized as
#: plain Python scalars at a time.  Scalar indexing into numpy arrays
#: is slow on the per-access hot path, so the cursor converts one
#: bounded chunk at a time — fast iteration without the 2x trace
#: memory of a full ``tolist()``.
CURSOR_CHUNK = 8192


class StreamCursor:
    """Chunked cursor over one GPU's (vpns, writes) trace arrays."""

    __slots__ = (
        "_vpns",
        "_writes",
        "length",
        "position",
        "_chunk_vpns",
        "_chunk_writes",
        "_chunk_base",
    )

    def __init__(self, vpns: np.ndarray, writes: np.ndarray) -> None:
        self._vpns = vpns
        self._writes = writes
        self.length = len(vpns)
        self.position = 0
        self._chunk_vpns: List[int] = []
        self._chunk_writes: List[bool] = []
        self._chunk_base = 0
        if self.length:
            self._load_chunk(0)

    def __len__(self) -> int:
        return self.length

    def _load_chunk(self, base: int) -> None:
        end = min(base + CURSOR_CHUNK, self.length)
        self._chunk_base = base
        self._chunk_vpns = self._vpns[base:end].tolist()
        self._chunk_writes = self._writes[base:end].tolist()

    def peek(self) -> Tuple[int, bool]:
        """The next ``(vpn, is_write)`` pair without consuming it."""
        position = self.position
        if position >= self.length:
            raise IndexError("stream cursor exhausted")
        offset = position - self._chunk_base
        if offset >= len(self._chunk_vpns):
            self._load_chunk(position)
            offset = 0
        return self._chunk_vpns[offset], self._chunk_writes[offset]

    def peek_batch(
        self, limit: int = CURSOR_CHUNK
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(vpns, writes)`` window of upcoming accesses.

        Returns numpy views over the trace arrays starting at the
        cursor position, at most ``limit`` entries long.  This is the
        batch entry point of the steady-state fast path (see
        :mod:`repro.sim.fastpath`); consume the verified prefix with
        :meth:`advance`.
        """
        start = self.position
        end = min(start + limit, self.length)
        return self._vpns[start:end], self._writes[start:end]

    def advance(self, count: int) -> None:
        """Consume ``count`` accesses previously seen via peek_batch."""
        position = self.position + count
        if count < 0 or position > self.length:
            raise IndexError("advance past the end of the stream")
        self.position = position
        # The scalar chunk is refilled lazily: peek() and
        # TranslationStage.next_access reload it when the new position
        # falls outside the materialized window.


class TranslationStage:
    """Stage 1: stream cursors plus the TLB/walk translation path."""

    def __init__(
        self,
        machine: "MachineState",
        trace: "WorkloadTrace",
        address_space: "AddressSpace",
    ) -> None:
        self.machine = machine
        self.fold_shift = (
            address_space.base_pages_per_page.bit_length() - 1
        )
        self.cursors = [
            StreamCursor(vpns, writes) for vpns, writes in trace.streams
        ]

    def next_access(self, gpu_id: int) -> Tuple[int, bool]:
        """Consume the next ``(folded_vpn, is_write)`` of one GPU."""
        cursor = self.cursors[gpu_id]
        position = cursor.position
        offset = position - cursor._chunk_base
        if offset >= len(cursor._chunk_vpns):
            cursor._load_chunk(position)
            offset = 0
        cursor.position = position + 1
        return (
            cursor._chunk_vpns[offset] >> self.fold_shift,
            cursor._chunk_writes[offset],
        )

    def lookup(
        self, node: "GpuNode", vpn: int, now: int
    ) -> Tuple[int, "LocalPTE | None", bool, "PageInfo | None"]:
        """Walk the translation path; ``(cycles, pte, l2_missed, page)``.

        L1/L2 TLB lookup, then on an L2 miss a page-table walk (the
        walk also tallies the touched page's current scheme for the
        Figure 19 breakdown) and a local-page-table lookup whose
        ``None`` result signals a page fault to the fault stages.
        ``l2_missed`` says the TLBs must be refilled once a
        translation exists.  ``page`` is the central-page-table entry
        the walk fetched (None without a walk); the fault path reuses
        it instead of consulting the central table a second time (it
        is the same live object — pages mutate in place and are never
        replaced).  A plain tuple: this runs once per L1 miss with the
        fast path on, and once per access with it off.
        """
        machine = self.machine
        pte, cycles, l2_missed = node.tlbs.lookup(vpn)
        page = None
        if l2_missed:
            walk = node.walker.walk(vpn, now)
            cycles += walk
            machine.breakdown.charge(LatencyCategory.LOCAL, walk)
            page = machine.central_pt.get(vpn)
            machine.counters.record_scheme_usage(page.scheme)
            pte = node.page_table.lookup(vpn)
        return cycles, pte, l2_missed, page

"""The contended-resource timing kernel.

Every cycle the simulator charges for data movement — page transfers,
control messages, far data accesses, fault service, flushes, and
invalidations — routes through this module.  The kernel owns the
routed :class:`~repro.interconnect.link.Link` resources (via the
topology) plus one :class:`~repro.memsys.dram.DramChannel` per node,
and prices each charge in one of two modes:

``"none"`` (the default)
    Flat latency-model costs, bit-for-bit identical to the classic
    simulator: a transfer costs fixed latency + serialization, a far
    access costs the MLP-scaled constant, and resources never queue.

``"queued"``
    Links and DRAM channels are stateful resources with a
    ``busy_until`` occupancy horizon.  Every transfer is a
    timestamped reservation: it waits behind earlier occupants of
    the routed link, then holds the wire for its serialization time.
    Far data accesses additionally queue on the target node's DRAM
    channel, so concurrent migrations, duplications, and remote
    access streams contend the way Section VI-C2's bandwidth
    pressure demands (and the way the UVM studies GPUVM and the SVM
    design-implications paper measure on real hardware).

The simlint rule GRIT-C007 keeps the kernel honest: outside this
module (and the resource models it drives) no simulation code may
read a raw charging constant off the :class:`~repro.config.
LatencyModel` — a new cost either goes through the kernel or fails
the lint build.

Select the mode with ``SystemConfig(contention=...)`` or the
``--contention`` CLI flag; the kernel reads ``config.contention`` and
nothing else.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.constants import HOST_NODE
from repro.errors import ConfigError
from repro.memsys.dram import DramChannel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import LatencyModel, SystemConfig
    from repro.interconnect.topology import Topology

#: Cache-line payload a far data access occupies its link with in
#: queued mode (typical GPU memory transaction granularity).
CACHE_LINE_BYTES = 128


@dataclasses.dataclass(frozen=True)
class AccessCosts:
    """Precomputed per-access latency charges (one per simulation).

    Far-access cost pairs are ``(read, write)`` — indexed by the
    access's ``is_write`` flag — because far writes are posted
    (fire-and-forget stores) and stall for roughly half a read's
    round trip.
    """

    local_access: int
    remote_access: Tuple[int, int]
    remote_penalty: Tuple[int, int]
    host_access: Tuple[int, int]
    host_penalty: Tuple[int, int]

    @classmethod
    def from_latency(cls, latency: "LatencyModel") -> "AccessCosts":
        """Derive the charge table from a config's latency model."""
        local = latency.scaled_data_access(latency.local_dram_access)
        remote = (
            latency.scaled_remote_access(),
            max(1, latency.scaled_remote_access() // 2),
        )
        host = (
            latency.scaled_host_remote_access(),
            max(1, latency.scaled_host_remote_access() // 2),
        )
        return cls(
            local_access=local,
            remote_access=remote,
            remote_penalty=tuple(
                max(0, cost - local) for cost in remote
            ),
            host_access=host,
            host_penalty=tuple(
                max(0, cost - local) for cost in host
            ),
        )


class TimingKernel:
    """Prices every cycle charge against the machine's shared resources.

    All timestamped methods take ``now`` — the charging GPU's current
    simulated cycle — and return stall cycles.  In flat mode ``now``
    is ignored and the returned costs are exactly the classic
    formulas; in queued mode the cost additionally includes the
    queueing delay of the routed link and/or DRAM channel, and the
    reservation advances that resource's ``busy_until`` horizon.
    """

    def __init__(
        self, config: "SystemConfig", topology: "Topology"
    ) -> None:
        self.latency = config.latency
        self.topology = topology
        self.mode = config.contention
        #: True in ``"queued"`` mode (cached flag for the hot path).
        self.queued = self.mode == "queued"
        self.costs = AccessCosts.from_latency(config.latency)
        service = self.costs.local_access
        #: One DRAM channel per GPU plus one for host memory.
        self.channels: List[DramChannel] = [
            DramChannel(f"dram-gpu{g}", service)
            for g in range(config.num_gpus)
        ]
        self.host_channel = DramChannel("dram-host", service)
        # Per-route flat-mode surcharges, precomputed once: a route's
        # first hop is already priced into the classic constants
        # (remote_dram_access includes the NVLink handshake), so only
        # hops *beyond* the first add cost.  Single-hop fabrics — the
        # 4-GPU all-to-all default — therefore charge exactly the
        # classic formulas, bit for bit.
        far_mlp = self.latency.far_access_mlp
        self._route_hops: dict = {}
        self._far_access_extra: dict = {}
        self._message_extra: dict = {}
        for key, route in topology.route_items():
            extra_hops = route.hops[1:]
            self._route_hops[key] = route.hop_count
            self._far_access_extra[key] = sum(
                max(1, hop.latency // far_mlp) for hop in extra_hops
            )
            self._message_extra[key] = sum(
                hop.latency for hop in extra_hops
            )

    # -- payload movement ----------------------------------------------

    def transfer(self, src: int, dst: int, size_bytes: int, now: int) -> int:
        """Move a payload between two nodes at cycle ``now``."""
        route = self.topology.route(src, dst)
        if self.queued:
            # Shared root-port-style resources first (the payload
            # crosses them without paying latency twice), then each
            # wire hop in order, store-and-forward.
            wait = 0
            for shared in route.shared:
                wait += shared.reserve_access(now + wait, size_bytes)
            total = wait
            arrive = now + wait
            for hop in route.hops:
                cycles = hop.reserve_transfer(arrive, size_bytes)
                total += cycles
                arrive += cycles
            return total
        total = 0
        for hop in route.hops:
            hop.record_transfer(size_bytes)
            total += hop.transfer_cost(size_bytes)
        return total

    def control_message(self, src: int, dst: int, now: int) -> int:
        """Deliver a payload-free message (fault, invalidation, ack)."""
        route = self.topology.route(src, dst)
        if self.queued:
            total = 0
            arrive = now
            for hop in route.hops:
                cycles = hop.reserve_message(arrive)
                total += cycles
                arrive += cycles
            return total
        total = 0
        for hop in route.hops:
            hop.record_message()
            total += hop.message_cost()
        return total

    # -- data accesses -------------------------------------------------

    def local_access(self, gpu: int, now: int) -> int:
        """One data access to the GPU's own DRAM."""
        cycles = self.costs.local_access
        if self.queued:
            cycles += self.channels[gpu].reserve(now)
        return cycles

    def local_access_bulk(self, gpu: int, count: int, now: int) -> int:
        """Price ``count`` back-to-back local data accesses at once.

        Flat-mode only: local accesses carry no cross-access state
        there, so the bulk charge is exactly ``count`` scalar charges.
        In queued mode each access is a timestamped DRAM-channel
        reservation whose cost depends on its own arrival time, so
        bulk pricing would reorder the queue — batched fast-path rounds
        never run under ``contention="queued"`` and this method refuses
        to guess.
        """
        if self.queued:
            raise ConfigError(
                "local_access_bulk is flat-mode only; queued-mode "
                "accesses must reserve their DRAM channel one at a time"
            )
        return count * self.costs.local_access

    def remote_access(
        self, gpu: int, owner: int, is_write: bool, now: int
    ) -> Tuple[int, int]:
        """One data access to a peer GPU's DRAM over NVLink.

        Returns ``(cycles, penalty)`` — the total stall and the
        remote-access share of it (what the Figure 19 breakdown
        attributes to remoteness).
        """
        extra = self._far_access_extra[(gpu, owner)]
        cycles = self.costs.remote_access[is_write] + extra
        penalty = self.costs.remote_penalty[is_write] + extra
        if self.queued:
            wait = self._reserve_route_access(gpu, owner, now)
            wait += self.channels[owner].reserve(now + wait)
            cycles += wait
            penalty += wait
        return cycles, penalty

    def host_access(
        self, gpu: int, is_write: bool, now: int
    ) -> Tuple[int, int]:
        """One data access to host memory over PCIe.

        Returns ``(cycles, penalty)`` like :meth:`remote_access`.
        """
        cycles = self.costs.host_access[is_write]
        penalty = self.costs.host_penalty[is_write]
        if self.queued:
            wait = self._reserve_route_access(gpu, HOST_NODE, now)
            wait += self.host_channel.reserve(now + wait)
            cycles += wait
            penalty += wait
        return cycles, penalty

    def _reserve_route_access(self, src: int, dst: int, now: int) -> int:
        """Reserve one cache-line access along a route (queued mode).

        Accesses ascend toward their target, so wire hops reserve
        first and shared root-port resources after — the order the
        classic host-access path used (per-GPU PCIe link, then the
        shared uplink).
        """
        route = self.topology.route(src, dst)
        wait = 0
        for hop in route.hops:
            wait += hop.reserve_access(now + wait, CACHE_LINE_BYTES)
        for shared in route.shared:
            wait += shared.reserve_access(now + wait, CACHE_LINE_BYTES)
        return wait

    # -- driver-side fixed charges -------------------------------------

    def host_service(self, gpu: int, now: int, scale: float = 1.0) -> int:
        """PCIe control hop plus UVM software fault-service time."""
        cycles = self.control_message(gpu, HOST_NODE, now)
        cycles += int(self.latency.host_fault_service * scale)
        return cycles

    def pipeline_flush(self, scale: float = 1.0) -> int:
        """Drain one GPU's pipeline and flush its caches/TLBs."""
        return int(self.latency.pipeline_flush * scale)

    def invalidation(self, count: int, scale: float = 1.0) -> int:
        """Shoot down ``count`` GPUs' PTE/TLB entries (+acks)."""
        return int(count * self.latency.invalidation_per_gpu * scale)

    def collapse_invalidation(
        self, writer: int, holder: int, scale: float = 1.0
    ) -> int:
        """Shoot down one replica ``holder`` during a write collapse.

        The classic per-GPU invalidation charge, plus the control
        latency of any route hops beyond the first between the writer
        and the holder — zero on single-hop fabrics, so the all-to-all
        collapse cost is unchanged.
        """
        return (
            self.invalidation(1, scale)
            + self._message_extra[(writer, holder)]
        )

    def gps_broadcast(self, writer: int, subscribers: Sequence[int]) -> int:
        """GPS fine-grained store broadcast from ``writer``.

        Each subscriber costs the per-store broadcast constant scaled
        by its route's hop count — one hop (the classic all-to-all
        charge) stays bit-for-bit, while switched/ring/cross-node
        subscribers pay proportionally for the longer path.
        """
        per_hop = self.latency.gps_store_broadcast
        return sum(
            per_hop * self._route_hops[(writer, sub)]
            for sub in subscribers
        )

    # -- contention statistics -----------------------------------------

    def dram_channels(self) -> List[DramChannel]:
        """Every DRAM channel (GPUs in id order, then the host)."""
        return [*self.channels, self.host_channel]

    def dram_wait_cycles(self) -> int:
        """Cumulative DRAM queueing delay across all channels."""
        return sum(c.wait_cycles for c in self.dram_channels())

    def dram_accesses(self) -> int:
        """Accesses that reserved any DRAM channel (queued mode)."""
        return sum(c.accesses for c in self.dram_channels())

    def dram_peak_occupancy(self) -> int:
        """Largest backlog any DRAM access observed on arrival."""
        return max(
            (c.peak_occupancy for c in self.dram_channels()), default=0
        )

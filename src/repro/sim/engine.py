"""The trace-driven multi-GPU simulation engine.

Each GPU replays its access stream against its own clock; the engine
always advances the GPU that is furthest behind, which interleaves the
streams the way concurrent execution would.  Per access the engine runs
the staged fault-service pipeline (see ``repro.sim.pipeline``):
translation (L1 TLB -> L2 TLB -> page-table walk), fault buffering,
batched fault service, then a data access charged by where the page
actually lives.  With ``fault_batch_size == 1`` (the default) faults
are serviced inline at the faulting access — the classic simulator,
bit-for-bit.  With a larger batch size the faulting access parks in the
GPU's replayable fault buffer while the stream keeps issuing (the other
warps of a real GPU); a full buffer drains as one batch through the UVM
driver and the parked accesses are then replayed.

With the fast path on (``SystemConfig.fast_path``, the default) two
shortcuts skip that pipeline where nothing needs modelling, both with
bit-for-bit the same results:

* the **fused check** probes the L1 TLB once and retires every L1 hit
  in the loop, with exactly the charges of the pipeline's L1-hit
  branch, so the translation chain runs only after an L1 miss.  A
  steady hit (local, and a read or a write to a writable page under a
  non-GPS policy) is priced inline; any other hit (a peer GPU's or the
  host's page, or a write that needs a protection fault or a GPS
  broadcast) goes straight to the data-access stage.  It runs in both
  contention modes: each DRAM-channel reservation happens at the same
  instant the pipeline would make it;
* **batched rounds** (:class:`~repro.sim.fastpath.FastPath`, flat
  contention only) retire every GPU's verified steady prefix at once.
  A per-GPU back-off tries them only where they recently paid: a round
  that commits fewer than :data:`_PAYING_ROUND` accesses makes the
  scheduled GPU skip its next 1, 3, 7, ... up to :data:`_MAX_BACKOFF`
  round attempts.

With ``fast_path=False`` every access takes the full pipeline; that is
the reference the fast-path property tests compare against.

No route bumps an access tally: the engine derives ``accesses``,
``reads`` and ``writes`` from what the stream cursors consumed, before
each observation sample and at the end of the run.
"""

from __future__ import annotations

import heapq

from typing import TYPE_CHECKING

import numpy as np

from repro.config import SystemConfig
from repro.constants import HOST_NODE, LatencyCategory
from repro.errors import SimulationError
from repro.memsys.address import AddressSpace
from repro.obs.run import RunObservation
from repro.obs.tracer import ENGINE_TRACK
from repro.policies.base import PlacementPolicy
from repro.sim.fastpath import FastPath
from repro.sim.pipeline import TranslationStage
from repro.sim.result import SimulationResult
from repro.uvm.driver import UvmDriver
from repro.uvm.machine import MachineState
from repro.workloads.base import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memsys.page_table import LocalPTE
    from repro.prefetch.tree import TreePrefetcher
    from repro.sim.gpu import GpuNode
    from repro.stats.events import EventLog

#: Bound once: on CPython 3.11, loading an enum member off its class
#: costs ~150 ns, and every far access charges this category.
_REMOTE_ACCESS = LatencyCategory.REMOTE_ACCESS

#: A batched round that commits fewer accesses than this did not pay
#: for its verification, so the scheduled GPU backs off.
_PAYING_ROUND = 32

#: Ceiling of the back-off: a GPU skips at most this many round
#: attempts in a row.
_MAX_BACKOFF = 63


class Engine:
    """Runs one workload trace under one placement policy."""

    def __init__(
        self,
        config: SystemConfig,
        trace: WorkloadTrace,
        policy: PlacementPolicy,
        prefetcher: "TreePrefetcher | None" = None,
        event_log: "EventLog | None" = None,
        observation: RunObservation | None = None,
    ) -> None:
        if trace.num_gpus != config.num_gpus:
            raise SimulationError(
                f"trace built for {trace.num_gpus} GPUs, config has "
                f"{config.num_gpus}"
            )
        self.config = config
        self.trace = trace
        self.policy = policy
        self.prefetcher = prefetcher
        self.address_space = AddressSpace(config.page_size)
        footprint = max(
            1,
            -(
                -trace.footprint_pages
                // self.address_space.base_pages_per_page
            ),
        )
        self.machine = MachineState.build(
            config, footprint, initial_scheme=policy.initial_scheme()
        )
        self.machine.event_log = event_log
        # Observability binds before the driver is built so the driver
        # sees the tracer and wraps its entry points.
        self.observation = observation
        if observation is not None:
            observation.bind(self.machine, policy)
        self.driver = UvmDriver(self.machine, policy)
        self.fault_service = self.driver.fault_service
        self.stage = TranslationStage(
            self.machine, trace, self.address_space
        )
        #: The fused check runs in both contention modes;
        #: batched rounds (repro.sim.fastpath) only in flat mode, since
        #: under contention="queued" every access is an order-sensitive
        #: reservation against live link/DRAM state.
        self.fastpath: FastPath | None = None
        if config.fast_path and not self.machine.kernel.queued:
            self.fastpath = FastPath(self)
        if prefetcher is not None:
            prefetcher.bind(self.driver)

    def run(self) -> SimulationResult:
        """Replay the whole trace; returns the aggregated result."""
        machine = self.machine
        counters = machine.counters
        policy = self.policy
        issue_gap = self.config.issue_gap
        interval = policy.interval_cycles
        next_interval = interval if interval else None
        observation = self.observation
        obs_next = (
            observation.sample_interval if observation is not None else None
        )

        gpus = machine.gpus
        stage = self.stage
        cursors = stage.cursors
        service = self.fault_service
        inline = service.inline
        fused = self.config.fast_path
        fastpath = self.fastpath
        if fused:
            l1s = [gpu.tlbs.l1 for gpu in gpus]
            l1_sets = [l1.sets for l1 in l1s]
            l1_mask = l1s[0].set_mask
            l1_latency = self.config.l1_tlb.lookup_latency
            steady_writes = not policy.gps_semantics
            local_access = machine.kernel.local_access
        if fastpath is not None:
            verified = fastpath.state
            steady_advance = fastpath.advance
            # Round attempts each GPU still skips, and its current
            # back-off (0, 1, 3, 7, ... _MAX_BACKOFF).
            skip = [0] * len(gpus)
            backoff = [0] * len(gpus)
        # Scheduling heap: always advance the GPU that is furthest
        # behind, ties broken by lowest id — (clock, gpu_id) tuples
        # order exactly like the old min()-over-list selection without
        # the O(n) scan and list surgery per access.
        heap = [
            (gpus[g].clock, g)
            for g in range(len(cursors))
            if len(cursors[g])
        ]
        heapq.heapify(heap)

        while heap:
            now, gpu_id = heap[0]
            node = gpus[gpu_id]
            if now != node.clock:
                # Stale entry: a policy interval hook advanced this
                # GPU's clock behind the heap's back (clocks only
                # grow, so the refreshed entry re-sorts correctly).
                heapq.heapreplace(heap, (node.clock, gpu_id))
                continue
            boundary = False
            if next_interval is not None and now >= next_interval:
                boundary = True
                policy.on_interval(now)
                if observation is not None:
                    observation.tracer.instant(
                        "policy_interval", ENGINE_TRACK, now
                    )
                # Realign instead of stepping one interval: a drain
                # that jumped the clock past several boundaries fires
                # the hook once (skipped boundaries coalesce) and the
                # next boundary is the first one after ``now`` — the
                # same catch-up rule the observation sampler uses.
                next_interval = (now // interval + 1) * interval
            if obs_next is not None and now >= obs_next:
                boundary = True
                self._tally_accesses()
                observation.sample(now)
                obs_next = (
                    now // observation.sample_interval + 1
                ) * observation.sample_interval
            if fastpath is not None:
                if boundary:
                    # The interval hook may have migrated pages and
                    # moved clocks, and this access must replay with
                    # the pre-hook ``now``: no round, and every cached
                    # verification revalidates before its next use.
                    fastpath.invalidate(gpu_id)
                elif skip[gpu_id]:
                    skip[gpu_id] -= 1
                else:
                    # Batched round: every GPU's verified steady
                    # prefix up to the joint horizon.
                    before = counters.fastpath_accesses
                    batched = fastpath.round(heap, next_interval, obs_next)
                    if counters.fastpath_accesses - before >= _PAYING_ROUND:
                        backoff[gpu_id] = 0
                    else:
                        backoff[gpu_id] = skip[gpu_id] = min(
                            2 * backoff[gpu_id] + 1, _MAX_BACKOFF
                        )
                    if batched:
                        continue
            vpn, is_write = stage.next_access(gpu_id)

            pte = None
            if fused:
                entries = l1_sets[gpu_id][vpn & l1_mask]
                pte = entries.get(vpn)
            if pte is None:
                if fastpath is not None:
                    # Full-pipeline accesses can fault, fill, migrate,
                    # or evict — anything the fast path verified
                    # against may change, so flag its cached
                    # verifications for revalidation.
                    fastpath.invalidate(gpu_id)
                cycles, parked = self._service_access(
                    gpu_id, node, vpn, is_write, now
                )
                node.clock = now + cycles + issue_gap
                if parked and service.should_drain(gpu_id):
                    node.clock += self._drain_faults(
                        gpu_id, node, node.clock
                    )
            elif pte.location == gpu_id and (
                not is_write or (steady_writes and pte.writable)
            ):
                # Fused steady access: the L1-hit branch of
                # _service_access, inline.
                entries.move_to_end(vpn)
                l1s[gpu_id].hits += 1
                if is_write:
                    node.dram.mark_dirty(vpn)
                else:
                    node.dram.touch(vpn)
                if fastpath is None:
                    # Queued mode: the data access reserves its DRAM
                    # channel at the instant the pipeline would.
                    data_at = now + l1_latency
                    node.clock = (
                        data_at + local_access(gpu_id, data_at) + issue_gap
                    )
                else:
                    node.clock = now + steady_advance
                    # Consume one access of this GPU's cached
                    # verification; nothing another GPU verified
                    # against changed, so no epoch bump.
                    state = verified.get(gpu_id)
                    if state is not None:
                        if state[1] > 1:
                            state[1] -= 1
                        else:
                            del verified[gpu_id]
            else:
                # Far or refused L1 hit: the page lives on a peer GPU
                # or the host, or the write needs a protection fault or
                # a GPS broadcast.  The L1-hit branch of
                # _service_access, without probing the L1 again.
                if fastpath is not None:
                    fastpath.invalidate(gpu_id)
                entries.move_to_end(vpn)
                l1s[gpu_id].hits += 1
                data_at = now + l1_latency
                node.clock = data_at + issue_gap + self._finish_access(
                    gpu_id, node, vpn, is_write, pte, data_at
                )
            cursor = cursors[gpu_id]
            if cursor.position == cursor.length:
                heapq.heappop(heap)
                # End of stream: nothing left to overlap parked faults
                # with, so flush this GPU's partial batch.
                if not inline and service.pending(gpu_id):
                    if fastpath is not None:
                        fastpath.invalidate(gpu_id)
                    node.clock += self._drain_faults(
                        gpu_id, node, node.clock
                    )
            else:
                heapq.heapreplace(heap, (node.clock, gpu_id))

        return self._build_result()

    def _service_access(
        self,
        gpu_id: int,
        node: "GpuNode",
        vpn: int,
        is_write: bool,
        now: int,
    ) -> tuple[int, bool]:
        """Stages 1-2 of one access; returns ``(cycles, parked)``.

        ``parked`` is True when the access deposited a fault into the
        GPU's buffer and its remainder (TLB fill, protection check,
        data access) is deferred to the post-drain replay.
        """
        cycles, pte, l2_missed, page = self.stage.lookup(node, vpn, now)
        if l2_missed:
            if pte is None:
                serviced = self.fault_service.submit(
                    gpu_id, vpn, is_write, now, page=page
                )
                if serviced is None:
                    return cycles, True
                cycles += serviced
                pte = node.page_table.lookup(vpn)
                if pte is None:
                    raise SimulationError(
                        f"fault on vpn {vpn} left GPU {gpu_id} unmapped"
                    )
                if self.prefetcher is not None:
                    self.prefetcher.on_install(gpu_id, vpn, now + cycles)
            node.fill_translation(vpn, pte)
        cycles += self._finish_access(
            gpu_id, node, vpn, is_write, pte, now + cycles
        )
        return cycles, False

    def _drain_faults(self, gpu_id: int, node: "GpuNode", now: int) -> int:
        """Stage 3 + replay: drain one GPU's buffer, finish accesses."""
        cycles, records = self.fault_service.drain(gpu_id, now)
        for event in records:
            cycles += self._replay_access(
                gpu_id, node, event.vpn, event.is_write, now + cycles
            )
        return cycles

    def _replay_access(
        self,
        gpu_id: int,
        node: "GpuNode",
        vpn: int,
        is_write: bool,
        now: int,
    ) -> int:
        """Finish one parked access after its batch was serviced."""
        cycles = 0
        pte = node.page_table.lookup(vpn)
        if pte is None:
            # A later fault in the same batch evicted this page while
            # being serviced; re-fault it inline.
            cycles += self.driver.handle_local_fault(
                gpu_id, vpn, is_write, now=now
            )
            pte = node.page_table.lookup(vpn)
            if pte is None:
                raise SimulationError(
                    f"fault on vpn {vpn} left GPU {gpu_id} unmapped"
                )
        if self.prefetcher is not None:
            self.prefetcher.on_install(gpu_id, vpn, now + cycles)
        node.fill_translation(vpn, pte)
        return cycles + self._finish_access(
            gpu_id, node, vpn, is_write, pte, now + cycles
        )

    def _finish_access(
        self,
        gpu_id: int,
        node: "GpuNode",
        vpn: int,
        is_write: bool,
        pte: "LocalPTE",
        now: int,
    ) -> int:
        """Stage 4: protection check plus the data access itself.

        ``now`` is the simulated cycle the access reaches the data
        path; the timing kernel prices the access against the routed
        link and DRAM channel occupancy at that instant (a no-op in
        the default flat mode).
        """
        driver = self.driver
        cycles = 0
        if is_write and not pte.writable:
            cycles += driver.handle_protection_fault(gpu_id, vpn, now=now)
            pte = node.page_table.lookup(vpn)
            if pte is None or not pte.writable:
                raise SimulationError(
                    f"collapse on vpn {vpn} left GPU {gpu_id} unwritable"
                )
            node.fill_translation(vpn, pte)
        # Data access: local DRAM, a peer GPU over NVLink, or host
        # memory over PCIe (counter-tracked pages before migration).
        kernel = self.machine.kernel
        breakdown = self.machine.breakdown
        location = pte.location
        if location == gpu_id:
            cycles += kernel.local_access(gpu_id, now + cycles)
            if is_write:
                node.dram.mark_dirty(vpn)
            else:
                node.dram.touch(vpn)
        elif location == HOST_NODE:
            access, penalty = kernel.host_access(
                gpu_id, is_write, now + cycles
            )
            cycles += access
            breakdown.charge(_REMOTE_ACCESS, penalty)
            cycles += driver.on_remote_access(
                gpu_id, vpn, now=now + cycles
            )
        else:
            access, penalty = kernel.remote_access(
                gpu_id, location, is_write, now + cycles
            )
            cycles += access
            breakdown.charge(_REMOTE_ACCESS, penalty)
            if is_write:
                self.machine.gpus[location].dram.mark_dirty(vpn)
            cycles += driver.on_remote_access(
                gpu_id, vpn, now=now + cycles
            )
        if self.policy.gps_semantics and is_write:
            cycles += driver.gps_write(gpu_id, vpn)
        return cycles

    def _tally_accesses(self) -> None:
        """Set the access tallies from what the cursors consumed."""
        counters = self.machine.counters
        accesses = writes = 0
        for cursor, (_, stream_writes) in zip(
            self.stage.cursors, self.trace.streams
        ):
            accesses += cursor.position
            writes += int(np.count_nonzero(stream_writes[: cursor.position]))
        counters.accesses = accesses
        counters.reads = accesses - writes
        counters.writes = writes

    def _build_result(self) -> SimulationResult:
        self._tally_accesses()
        machine = self.machine
        l1_hits = sum(gpu.tlbs.l1.hits for gpu in machine.gpus)
        l1_misses = sum(gpu.tlbs.l1.misses for gpu in machine.gpus)
        l2_hits = sum(gpu.tlbs.l2.hits for gpu in machine.gpus)
        details: dict[str, object] = {
            "nvlink_bytes": machine.topology.total_nvlink_bytes(),
            "pcie_bytes": machine.topology.total_pcie_bytes(),
            "contention": machine.kernel.mode,
            "topology": machine.topology.spec.describe(),
            "link_wait_cycles": machine.topology.total_wait_cycles(),
            "switch_wait_cycles": machine.topology.switch_wait_cycles(),
            "dram_wait_cycles": machine.kernel.dram_wait_cycles(),
            "policy_description": self.policy.describe(),
            "l1_tlb_hit_rate": (
                l1_hits / (l1_hits + l1_misses) if l1_hits + l1_misses else 0.0
            ),
            "l2_tlb_hit_rate": (
                l2_hits / l1_misses if l1_misses else 0.0
            ),
            "page_walks": sum(gpu.walker.walks for gpu in machine.gpus),
            "walk_cache_hit_rate": self._walk_cache_hit_rate(),
        }
        per_gpu_evictions = [gpu.dram.evictions for gpu in machine.gpus]
        details["per_gpu_evictions"] = per_gpu_evictions
        machine.counters.evictions = sum(per_gpu_evictions)
        details["footprint_pages"] = machine.footprint_pages
        details["fault_imbalance"] = machine.counters.fault_imbalance()
        total_cycles = max(gpu.clock for gpu in machine.gpus)
        if machine.event_log is not None:
            details["dropped_events"] = machine.event_log.dropped
        if self.observation is not None:
            self.observation.finalize(total_cycles)
        return SimulationResult(
            workload=self.trace.name,
            policy=self.policy.name,
            total_cycles=total_cycles,
            per_gpu_cycles=[gpu.clock for gpu in machine.gpus],
            counters=machine.counters,
            breakdown=machine.breakdown,
            num_gpus=self.config.num_gpus,
            page_size=self.config.page_size,
            details=details,
        )

    def _walk_cache_hit_rate(self) -> float:
        hits = sum(gpu.walker.walk_cache.hits for gpu in self.machine.gpus)
        misses = sum(
            gpu.walker.walk_cache.misses for gpu in self.machine.gpus
        )
        return hits / (hits + misses) if hits + misses else 0.0


def simulate(
    config: SystemConfig,
    trace: WorkloadTrace,
    policy: PlacementPolicy,
    prefetcher: "TreePrefetcher | None" = None,
    event_log: "EventLog | None" = None,
    observation: RunObservation | None = None,
) -> SimulationResult:
    """Convenience wrapper: build an :class:`Engine` and run it."""
    engine = Engine(
        config,
        trace,
        policy,
        prefetcher=prefetcher,
        event_log=event_log,
        observation=observation,
    )
    return engine.run()

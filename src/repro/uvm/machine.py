"""Shared machine state bundle.

The UVM driver, its mechanics engines, the placement policy, and the
simulation engine all operate on the same collection of architectural
structures; :class:`MachineState` is that collection.  It is built once
per simulation from a :class:`~repro.config.SystemConfig` and the
workload's footprint, and the config's fields are its only settings:
``topology`` shapes the fabric and ``contention`` picks the timing
kernel's mode.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List

from repro.config import SystemConfig
from repro.constants import Scheme
from repro.interconnect.topology import Topology
from repro.memsys.access_counter import AccessCounterFile
from repro.memsys.page_table import CentralPageTable
from repro.stats.counters import EventCounters
from repro.stats.latency import LatencyBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import SpanTracer
    from repro.sim.gpu import GpuNode
    from repro.sim.timing import TimingKernel
    from repro.stats.events import EventLog


@dataclasses.dataclass
class MachineState:
    """All mutable architectural state for one simulation."""

    config: SystemConfig
    gpus: List["GpuNode"]
    central_pt: CentralPageTable
    topology: Topology
    #: The contended-resource timing kernel every cycle charge routes
    #: through (see repro.sim.timing).
    kernel: "TimingKernel"
    access_counters: AccessCounterFile
    counters: EventCounters
    breakdown: LatencyBreakdown
    #: Application footprint in *configured* pages (bounds prefetching).
    footprint_pages: int = 0
    #: Optional structured event log (attach before simulating).
    event_log: "EventLog | None" = None
    #: Optional span tracer (observability attaches it before the UVM
    #: driver is built; the driver then wraps its entry points).
    tracer: "SpanTracer | None" = None

    @classmethod
    def build(
        cls,
        config: SystemConfig,
        footprint_pages: int,
        initial_scheme: Scheme = Scheme.ON_TOUCH,
    ) -> "MachineState":
        """Construct the full machine for a workload footprint."""
        from repro.interconnect.routing import TopologySpec
        from repro.sim.gpu import GpuNode
        from repro.sim.timing import TimingKernel

        frames = config.dram_frames_per_gpu(footprint_pages)
        gpus = [
            GpuNode(gpu_id=g, config=config, dram_frames=frames)
            for g in range(config.num_gpus)
        ]
        topology = Topology(
            config.num_gpus,
            config.latency,
            spec=TopologySpec.parse(config.topology, config.num_gpus),
        )
        return cls(
            config=config,
            gpus=gpus,
            central_pt=CentralPageTable(default_scheme=initial_scheme),
            topology=topology,
            kernel=TimingKernel(config, topology),
            access_counters=AccessCounterFile(
                threshold=config.access_counter_threshold,
                pages_per_group=config.pages_per_counter_group,
            ),
            counters=EventCounters(),
            breakdown=LatencyBreakdown(),
            footprint_pages=footprint_pages,
        )

    def check_invariants(
        self, allow_writable_replicas: bool = False
    ) -> List[str]:
        """Sweep the UVM machine-state invariants; returns violations.

        Convenience wrapper over
        :class:`repro.uvm.sanitizer.MachineSanitizer` for tests and
        ad-hoc debugging; the UVM driver runs the same sweep after
        every operation when ``config.sanitize`` is set.
        """
        from repro.uvm.sanitizer import MachineSanitizer

        sanitizer = MachineSanitizer(
            self, allow_writable_replicas=allow_writable_replicas
        )
        return sanitizer.violations()

    def invalidate_everywhere(self, vpn: int) -> int:
        """Invalidate every GPU's translation for ``vpn``.

        Returns the number of GPUs that actually held a translation,
        which is what invalidation latency scales with.
        """
        invalidated = 0
        for gpu in self.gpus:
            if gpu.invalidate_translation(vpn):
                invalidated += 1
        return invalidated

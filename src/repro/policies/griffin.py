"""Griffin comparator (Baruah et al., HPCA 2020; paper Section VI-C1).

Griffin has two parts:

* **DPC** (Dynamic Page Classification): pages are pinned first-touch
  and served remotely; at a fixed time interval the runtime classifies
  pages by their observed accesses and migrates pages whose dominant
  accessor is remote.  The cost the paper highlights — and this model
  reproduces — is that remote accesses accumulate for a whole interval
  before the migration happens.
* **ACUD** (Asynchronous Compute Unit Draining): overlaps pipeline
  draining with migration, modelled as a scale factor on flush and
  invalidation latencies (``acud_discount`` in the latency model).
"""

from __future__ import annotations

from typing import Dict

from repro.constants import Scheme
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic, PlacementPolicy
from repro.uvm.machine import MachineState
from repro.uvm.migration import MigrationEngine

#: Default classification interval, in cycles.
DEFAULT_DPC_INTERVAL = 200_000

#: Remote accesses within one interval a page needs before DPC considers
#: migrating it (filters one-off touches).
DEFAULT_DPC_MIN_ACCESSES = 8


class GriffinPolicy(PlacementPolicy):
    """Griffin-DPC, optionally with ACUD."""

    name = "griffin_dpc"

    def __init__(
        self,
        acud: bool = False,
        interval_cycles: int = DEFAULT_DPC_INTERVAL,
        min_accesses: int = DEFAULT_DPC_MIN_ACCESSES,
    ) -> None:
        super().__init__()
        self.interval_cycles = interval_cycles
        self.min_accesses = min_accesses
        self._acud = acud
        if acud:
            self.name = "griffin"
        #: vpn -> {gpu -> remote accesses in the current interval}
        self._interval_counts: Dict[int, Dict[int, int]] = {}
        self._migration: MigrationEngine | None = None
        self.dpc_migrations = 0

    def bind(self, machine: MachineState) -> None:
        """Resolve the ACUD discount and build the migration engine."""
        super().bind(machine)
        if self._acud:
            self.flush_scale = machine.config.latency.acud_discount
        self._migration = MigrationEngine(machine)

    def initial_scheme(self) -> Scheme:
        """Remote mappings behave like AC PTEs."""
        return Scheme.ACCESS_COUNTER

    def mechanic_for(self, page: PageInfo) -> Mechanic:
        """Faults pin/peer-map; DPC migrates at interval boundaries."""
        return Mechanic.PEER_REMOTE

    def on_remote_access(self, gpu: int, vpn: int) -> None:
        """Per-interval access tracking for DPC."""
        per_gpu = self._interval_counts.setdefault(vpn, {})
        per_gpu[gpu] = per_gpu.get(gpu, 0) + 1

    def on_interval(self, now: int) -> None:
        """DPC step: migrate pages toward their dominant remote accessor."""
        assert self.machine is not None and self._migration is not None
        machine = self.machine
        for vpn, per_gpu in self._interval_counts.items():
            dominant = max(per_gpu, key=per_gpu.get)
            count = per_gpu[dominant]
            if count < self.min_accesses:
                continue
            page = machine.central_pt.get(vpn)
            if page.owner == dominant:
                continue
            cycles = self._migration.migrate(
                page, dominant, flush_scale=self.flush_scale, now=now
            )
            # Delayed migrations run alongside execution; the receiving
            # GPU absorbs the transfer/invalidation time.
            machine.gpus[dominant].clock += cycles
            self.dpc_migrations += 1
        self._interval_counts.clear()

    def describe(self) -> str:
        """Report-friendly one-liner."""
        suffix = " + ACUD" if self._acud else ""
        return (
            f"Griffin-DPC (interval={self.interval_cycles} cycles, "
            f"min-accesses={self.min_accesses}){suffix}"
        )

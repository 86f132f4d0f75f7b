"""Trans-FW comparator (Li et al., HPCA 2023; Section VI-C3).

Trans-FW short-circuits page-table walks on faults by forwarding
translations between GPUs, cutting the host fault-service latency.  It
is orthogonal to what pages get placed where, so it is modelled as a
fault-service scale factor that can be stacked on another policy —
the paper evaluates Griffin-DPC + Trans-FW.
"""

from __future__ import annotations

from repro.policies.griffin import GriffinPolicy
from repro.policies.grit_policy import GritPolicy
from repro.uvm.machine import MachineState


class GritTransFwPolicy(GritPolicy):
    """GRIT stacked with Trans-FW (an extension the paper's related-work
    framing invites: GRIT is orthogonal to fault-service acceleration)."""

    name = "grit_transfw"

    def __init__(self) -> None:
        super().__init__()
        self.name = "grit_transfw"

    def bind(self, machine: MachineState) -> None:
        """GRIT bind plus the Trans-FW fault-service scale."""
        super().bind(machine)
        self.fault_service_scale = machine.config.latency.transfw_discount

    def describe(self) -> str:
        """Report-friendly one-liner."""
        return "GRIT + Trans-FW translation forwarding"


class GriffinTransFwPolicy(GriffinPolicy):
    """Griffin-DPC combined with Trans-FW (the Figure 28 comparator)."""

    name = "griffin_dpc_transfw"

    def __init__(self) -> None:
        super().__init__(acud=False)
        self.name = "griffin_dpc_transfw"

    def bind(self, machine: MachineState) -> None:
        """Griffin bind plus the Trans-FW fault-service scale."""
        super().bind(machine)
        self.fault_service_scale = machine.config.latency.transfw_discount

    def describe(self) -> str:
        """Report-friendly one-liner."""
        return "Griffin-DPC + Trans-FW translation forwarding"

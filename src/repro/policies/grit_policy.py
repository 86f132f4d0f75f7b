"""GRIT as a placement policy (Section V, Figure 16).

Starts every page at on-touch migration (the paper's choice of starting
baseline), feeds every fault through the GRIT mechanism, and resolves
faults with whatever scheme the page's PTE scheme bits currently carry —
whether set directly by a threshold decision or pre-set for neighbors by
Neighboring-Aware Prediction.
"""

from __future__ import annotations

from typing import Dict

from repro.constants import FaultKind, Scheme
from repro.core.grit import GritMechanism
from repro.memsys.page import PageInfo
from repro.policies.base import (
    SCHEME_MECHANIC,
    FaultObservation,
    Mechanic,
    PlacementPolicy,
)
from repro.uvm.machine import MachineState


class GritPolicy(PlacementPolicy):
    """Fine-grained dynamic page placement."""

    name = "grit"

    def __init__(self, acud: bool = False) -> None:
        super().__init__()
        self._acud = acud
        self.mechanism: GritMechanism | None = None
        self._quiet: Dict[int, FaultObservation] = {}
        if acud:
            self.name = "grit_acud"

    def bind(self, machine: MachineState) -> None:
        """Build the GRIT mechanism from ``machine.config.grit``."""
        super().bind(machine)
        if self._acud:
            self.flush_scale = machine.config.latency.acud_discount
        self.mechanism = GritMechanism(
            config=machine.config.grit,
            latency=machine.config.latency,
            page_table=machine.central_pt,
        )
        # The observation of a fault below the threshold, one per
        # PA-path charge, shared by every such fault.
        self._quiet = {
            charge: FaultObservation(extra_latency=charge)
            for charge in self.mechanism.initiator.charges
        }

    def initial_scheme(self) -> Scheme:
        """GRIT starts every page at on-touch (Section VI-A)."""
        return Scheme.ON_TOUCH

    def mechanic_for(self, page: PageInfo) -> Mechanic:
        """Resolve faults with whatever the PTE scheme bits say."""
        return SCHEME_MECHANIC[page.scheme]

    def on_fault_observed(
        self, gpu: int, vpn: int, kind: FaultKind, is_write: bool
    ) -> FaultObservation:
        """Feed the fault through GRIT and translate its decisions
        into driver actions and statistics."""
        assert self.mechanism is not None, "policy used before bind()"
        change = self.mechanism.observe_fault(vpn, kind, is_write)
        if not change.decision_made:
            return self._quiet[change.extra_latency]
        assert self.machine is not None
        counters = self.machine.counters
        counters.group_promotions += change.promotions
        counters.group_degradations += change.degradations
        collapse_charged: tuple[int, ...] = ()
        collapse_background: list[int] = []
        event_log = self.machine.event_log
        if event_log is not None and (
            change.promotions or change.degradations
        ):
            from repro.stats.events import EventKind

            if change.promotions:
                event_log.emit(
                    EventKind.GROUP_PROMOTION,
                    vpn,
                    gpu,
                    detail=change.promotions,
                )
            if change.degradations:
                event_log.emit(
                    EventKind.GROUP_DEGRADATION,
                    vpn,
                    gpu,
                    detail=change.degradations,
                )
        if change.scheme_changed:
            counters.scheme_changes += 1
            if event_log is not None:
                from repro.stats.events import EventKind

                event_log.emit(
                    EventKind.SCHEME_CHANGE,
                    vpn,
                    gpu,
                    detail=int(change.new_scheme),
                )
            if change.new_scheme is not Scheme.DUPLICATION:
                # The page itself is leaving duplication (or was never
                # duplicated — drop_replicas is then a no-op).
                collapse_charged = (vpn,)
        for propagated_vpn, old_scheme in change.propagated:
            counters.scheme_changes += 1
            if old_scheme is Scheme.DUPLICATION:
                collapse_background.append(propagated_vpn)
        return FaultObservation(
            extra_latency=change.extra_latency,
            collapse_charged=collapse_charged,
            collapse_background=tuple(collapse_background),
        )

    def describe(self) -> str:
        """Report-friendly one-liner naming the active knobs."""
        parts = ["GRIT"]
        if self.mechanism is not None:
            config = self.mechanism.config
            parts.append(f"threshold={config.fault_threshold}")
            if not config.use_pa_cache:
                parts.append("no-PA-Cache")
            if not config.use_neighbor_prediction:
                parts.append("no-NAP")
        if self.flush_scale < 1.0:
            parts.append("ACUD")
        return " ".join(parts)


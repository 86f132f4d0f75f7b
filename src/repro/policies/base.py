"""Placement-policy interface.

A policy decides *which mechanic* resolves each page's faults and may
react to fault/interval events.  The UVM driver owns the mechanics
themselves (migration, remote mapping, duplication, collapse); policies
are pure decision logic, which is what lets GRIT, the uniform schemes,
and the comparators share one simulator.
"""

from __future__ import annotations

import abc
import enum
from typing import TYPE_CHECKING, NamedTuple, Tuple

from repro.constants import FaultKind, Scheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memsys.page import PageInfo
    from repro.uvm.machine import MachineState


class Mechanic(enum.Enum):
    """How the driver resolves faults for a page.

    The first three correspond to the paper's schemes (Section II-B).
    ``PEER_REMOTE`` pins the page where it was first touched and serves
    other GPUs through remote mappings forever (first-touch, and the
    substrate under Griffin's delayed migration).  ``GPS`` is
    publish-subscribe replication with write broadcast.  ``IDEAL`` is
    the paper's optimization-potential upper bound.
    """

    ON_TOUCH = "on_touch"
    ACCESS_COUNTER = "access_counter"
    DUPLICATION = "duplication"
    PEER_REMOTE = "peer_remote"
    GPS = "gps"
    IDEAL = "ideal"


#: Mechanic implementing each of the paper's PTE scheme encodings.
SCHEME_MECHANIC = {
    Scheme.ON_TOUCH: Mechanic.ON_TOUCH,
    Scheme.ACCESS_COUNTER: Mechanic.ACCESS_COUNTER,
    Scheme.DUPLICATION: Mechanic.DUPLICATION,
}


class FaultObservation(NamedTuple):
    """What a policy did in response to observing a fault."""

    #: Extra cycles to charge this fault (PA path, tracking structures).
    extra_latency: int = 0
    #: Pages that must drop replicas *with* charged invalidations
    #: (a direct scheme change away from duplication).
    collapse_charged: Tuple[int, ...] = ()
    #: Pages that must drop replicas in the background (neighbor
    #: propagation; the paper charges no latency for these).
    collapse_background: Tuple[int, ...] = ()


NO_OBSERVATION = FaultObservation()


class PlacementPolicy(abc.ABC):
    """Decision logic plugged into the UVM driver."""

    #: Registry name; subclasses override.
    name: str = "base"
    #: Writes to replicated pages broadcast instead of collapsing (GPS).
    gps_semantics: bool = False
    #: Replicated pages keep read-only mappings so a write faults and
    #: collapses.  GPS (store broadcast) and the Ideal bound relax this;
    #: the machine-state sanitizer keys its replica checks off it.
    enforces_replica_protection: bool = True
    #: Scale on UVM fault-service latency (Trans-FW forwarding < 1.0).
    fault_service_scale: float = 1.0
    #: Scale on pipeline-flush/invalidation latency (ACUD < 1.0).
    flush_scale: float = 1.0
    #: Period (cycles) of :meth:`on_interval` callbacks; None disables.
    interval_cycles: int | None = None

    def __init__(self) -> None:
        self.machine: "MachineState | None" = None

    def bind(self, machine: "MachineState") -> None:
        """Attach to a machine; called once by the engine at setup."""
        self.machine = machine

    def initial_scheme(self) -> Scheme:
        """Scheme bits a freshly materialized PTE carries."""
        return Scheme.ON_TOUCH

    @abc.abstractmethod
    def mechanic_for(self, page: "PageInfo") -> Mechanic:
        """Mechanic the driver must use to resolve this page's faults."""

    def on_fault_observed(
        self, gpu: int, vpn: int, kind: FaultKind, is_write: bool
    ) -> FaultObservation:
        """Hook run for every local/protection fault (GRIT's PA path).

        ``is_write`` is the faulting access's type (what sets the PA
        entry's read/write bit), independent of the fault kind.
        """
        return NO_OBSERVATION

    def on_remote_access(self, gpu: int, vpn: int) -> None:
        """Hook run for every remote data access (Griffin's tracking)."""

    def on_interval(self, now: int) -> None:
        """Periodic hook (Griffin's delayed page classification)."""

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return self.name

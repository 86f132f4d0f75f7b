"""Latency + bandwidth link model with occupancy state.

A transfer costs a fixed per-message latency plus a serialization
component (bytes / bandwidth).  Links also track cumulative traffic so
experiments can report interconnect pressure (used by the GPS
oversubscription analysis in Section VI-C2).

Cost computation and traffic accounting are separate: the pure
``transfer_cost``/``message_cost`` queries never mutate the counters,
and the side-effecting ``record_*`` methods do the accounting; the
flat timing mode calls one of each per hop.  The ``reserve_*``
methods additionally treat the link as a contended resource: each
reservation waits behind the link's ``busy_until`` horizon, then
occupies the wire for its serialization time (the fixed latency is
propagation delay and pipelines with other messages).  The timing
kernel (:mod:`repro.sim.timing`) picks between the flat and the
reserved paths based on ``SystemConfig.contention``.
"""

from __future__ import annotations

import math


class Link:
    """Point-to-point (or shared-bus) link with occupancy accounting."""

    def __init__(
        self, name: str, latency: int, bytes_per_cycle: float
    ) -> None:
        if latency < 0:
            raise ValueError("link latency must be non-negative")
        if bytes_per_cycle <= 0:
            raise ValueError("link bandwidth must be positive")
        self.name = name
        self.latency = latency
        self.bytes_per_cycle = bytes_per_cycle
        self.bytes_transferred = 0
        self.messages = 0
        #: Cycle until which the wire is occupied by earlier
        #: reservations (contended "queued" mode only).
        self.busy_until = 0
        #: Cumulative cycles reservations spent queued behind earlier
        #: occupants.
        self.wait_cycles = 0
        #: Largest backlog (``busy_until - now``) any reservation ever
        #: observed on arrival — the link's peak queue depth in cycles.
        self.peak_occupancy = 0

    # -- pure cost queries (no side effects) ---------------------------

    def transfer_cost(self, size_bytes: int) -> int:
        """Uncontended cycles to move ``size_bytes``; no accounting."""
        if size_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        return self.latency + self.serialization_cycles(size_bytes)

    def message_cost(self) -> int:
        """Uncontended cycles for a payload-free control message."""
        return self.latency

    def serialization_cycles(self, size_bytes: int) -> int:
        """Cycles the payload occupies the wire (bytes / bandwidth)."""
        return math.ceil(size_bytes / self.bytes_per_cycle)

    # -- traffic accounting (side effects, no cost) --------------------

    def record_transfer(self, size_bytes: int) -> None:
        """Account one payload transfer in the traffic counters."""
        if size_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        self.bytes_transferred += size_bytes
        self.messages += 1

    def record_message(self) -> None:
        """Account one control message in the traffic counters."""
        self.messages += 1

    # -- contended reservations (timestamped; "queued" mode) -----------

    def _wait(self, now: int) -> int:
        """Queueing delay behind the current occupancy horizon."""
        wait = self.busy_until - now
        if wait <= 0:
            return 0
        self.wait_cycles += wait
        if wait > self.peak_occupancy:
            self.peak_occupancy = wait
        return wait

    def reserve_transfer(self, now: int, size_bytes: int) -> int:
        """Reserve the wire for a payload transfer arriving at ``now``.

        Returns the total cycles the transfer takes from the caller's
        perspective: queueing wait + fixed latency + serialization.
        The wire is occupied for the serialization component only.
        """
        self.record_transfer(size_bytes)
        wait = self._wait(now)
        serialization = self.serialization_cycles(size_bytes)
        self.busy_until = now + wait + serialization
        return wait + self.latency + serialization

    def reserve_message(self, now: int) -> int:
        """Reserve delivery of a control message arriving at ``now``.

        Control messages queue behind in-flight transfers but carry no
        payload, so they do not extend the occupancy horizon.
        """
        self.record_message()
        return self._wait(now) + self.latency

    def reserve_access(self, now: int, size_bytes: int) -> int:
        """Reserve one cache-line data access arriving at ``now``.

        Returns only the *extra* cycles contention adds (queueing wait)
        — the flat far-access cost already prices the line's movement.
        Accesses occupy the wire for their serialization time so bulk
        transfers behind a hot access stream queue up, but they are not
        counted as page traffic (``bytes_transferred`` stays the page
        migration/duplication volume the figures report).
        """
        wait = self._wait(now)
        self.busy_until = now + wait + self.serialization_cycles(size_bytes)
        return wait

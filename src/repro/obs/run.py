"""Run-scoped observability bundle.

One :class:`RunObservation` per simulation ties the three pillars
together: it owns the span tracer and the metrics registry, installs
itself as the event-log listener (machine events become child spans
and histogram observations), and is sampled by the engine on a fixed
simulated-cycle interval.

Observability is off by default at zero fast-path cost.  A run is
observed only when its caller hands the engine an observation,
``Engine(observation=RunObservation())``, as ``repro run --trace``
/ ``--metrics`` and ``ExperimentRunner(artifacts_dir=...)`` (``figure``
/ ``report --artifacts``) do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.obs import catalog
from repro.obs.catalog import build_registry
from repro.obs.sampler import MetricsSampler
from repro.obs.tracer import (
    ENGINE_TRACK,
    SpanTracer,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.stats.events import Event, EventKind, EventLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policies.base import PlacementPolicy
    from repro.uvm.machine import MachineState

#: Simulated cycles between metric samples (a run in the hundreds of
#: millions of cycles yields a few thousand sample rows per metric).
DEFAULT_SAMPLE_INTERVAL = 100_000


class RunObservation:
    """Tracer + metrics + event log for one simulation run."""

    def __init__(
        self, sample_interval: int = DEFAULT_SAMPLE_INTERVAL
    ) -> None:
        if sample_interval < 1:
            raise ValueError("sample interval must be positive")
        self.sample_interval = sample_interval
        self.tracer = SpanTracer()
        self.registry = build_registry()
        self.event_log: EventLog | None = None
        self.sampler: MetricsSampler | None = None
        self._finalized = False

    def bind(
        self, machine: "MachineState", policy: "PlacementPolicy"
    ) -> None:
        """Attach to a machine before its UVM driver is constructed.

        Installs the tracer on the machine (the driver wraps its entry
        points when it sees one), guarantees an event log exists, and
        registers this observation as the log's listener.
        """
        if machine.event_log is None:
            machine.event_log = EventLog()
        self.event_log = machine.event_log
        self.event_log.listener = self.on_event
        machine.tracer = self.tracer
        self.sampler = MetricsSampler(self.registry, machine, policy)

    def on_event(self, event: Event) -> None:
        """Event-log listener: spans plus per-operation histograms."""
        self.tracer.on_event(event)
        if event.kind is EventKind.LOCAL_FAULT:
            self.registry.observe(
                catalog.UVM_FAULT_SERVICE_CYCLES, event.cycles
            )
        elif event.kind is EventKind.MIGRATION:
            self.registry.observe(
                catalog.UVM_MIGRATION_CYCLES, event.cycles
            )

    def sample(self, now: int) -> None:
        """Record one metric sample at simulated cycle ``now``."""
        if self.sampler is not None:
            self.sampler.sample(now)

    def finalize(self, total_cycles: int) -> None:
        """Close out the run: final sample plus the whole-run span."""
        if self._finalized:
            return
        self._finalized = True
        self.sample(total_cycles)
        self.tracer.record("run", ENGINE_TRACK, 0, total_cycles)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def chrome_trace(
        self, metadata: Dict[str, object] | None = None
    ) -> dict:
        """The Chrome trace-event document (spans + counter samples)."""
        extra: Dict[str, object] = {}
        if self.event_log is not None:
            extra["dropped_events"] = self.event_log.dropped
        if metadata:
            extra.update(metadata)
        return to_chrome_trace(
            self.tracer, self.registry.samples, metadata=extra
        )

    def write_trace(
        self, path: str, metadata: Dict[str, object] | None = None
    ) -> None:
        """Write the trace JSON with a byte-stable layout."""
        write_chrome_trace(path, self.chrome_trace(metadata))

    def write_metrics(self, path: str) -> None:
        """Write the metrics series to ``path`` as JSON-lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.registry.to_jsonl())

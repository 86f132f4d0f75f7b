"""Run-scoped observability: tracing, metrics, and inspection.

Three pillars, all off unless a run is handed a
:class:`~repro.obs.run.RunObservation` (``Engine(observation=...)``):

* :mod:`repro.obs.tracer` — span instrumentation of UVM driver
  operations on per-GPU tracks, in *simulated* cycles, exported as
  Chrome trace-event JSON (opens directly in Perfetto);
* :mod:`repro.obs.metrics` + :mod:`repro.obs.catalog` — a typed
  counter / gauge / histogram registry sampled per interval and
  exported as JSON-lines;
* :mod:`repro.obs.inspect` — page-lifecycle reconstruction from the
  structured event log (the ``grit-repro inspect`` subcommand).

Host wall time is not observed here: ``python -m benchmarks.perf``
measures it, layer by layer with ``--trace 1``.
"""

from repro.obs.catalog import build_registry
from repro.obs.inspect import (
    busiest_pages,
    page_lifecycle,
    render_lifecycle,
    scheme_transitions,
)
from repro.obs.metrics import (
    HistogramData,
    MetricKind,
    MetricSpec,
    MetricsRegistry,
)
from repro.obs.run import RunObservation
from repro.obs.tracer import ENGINE_TRACK, Span, SpanTracer, to_chrome_trace

__all__ = [
    "ENGINE_TRACK",
    "HistogramData",
    "MetricKind",
    "MetricSpec",
    "MetricsRegistry",
    "RunObservation",
    "Span",
    "SpanTracer",
    "build_registry",
    "busiest_pages",
    "page_lifecycle",
    "render_lifecycle",
    "scheme_transitions",
    "to_chrome_trace",
]

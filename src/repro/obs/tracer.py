"""Span tracing over simulated cycles (pillar 1 of repro.obs).

The tracer records *spans* — named intervals with a start cycle and a
duration — on per-GPU tracks, plus a ``host`` track for host-initiated
work and an ``engine`` track for whole-run phases.  Timestamps are
simulated cycles, never wall time, so a trace is a pure function of
(config, trace, policy) and byte-identical across runs.

Driver operations become top-level spans (the UVM driver wraps its
entry points when a tracer is installed, mirroring the sanitizer
hooks); machine events appended to the :class:`~repro.stats.events.
EventLog` during an operation become child spans laid out sequentially
inside it, so a fault span shows the migration / duplication /
eviction work it paid for.  Zero-duration spans are exported as
instant events.

:func:`to_chrome_trace` renders everything as a Chrome trace-event
JSON document that opens directly in Perfetto or ``chrome://tracing``
(one simulated cycle is displayed as one microsecond).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Sequence, Tuple

from repro.stats.events import Event, EventKind

#: Track name for engine-level phases (the whole-run span, interval
#: ticks); GPU tracks are ``gpu<N>`` and host-side work is ``host``.
ENGINE_TRACK = "engine"

#: Event kinds rendered as child spans of the enclosing driver
#: operation.  Fault kinds are excluded: the operation span itself
#: already covers the fault end to end.
_CHILD_KINDS = frozenset(
    {
        EventKind.MIGRATION,
        EventKind.DUPLICATION,
        EventKind.WRITE_COLLAPSE,
        EventKind.EVICTION,
        EventKind.PREFETCH,
        EventKind.SCHEME_CHANGE,
        EventKind.GROUP_PROMOTION,
        EventKind.GROUP_DEGRADATION,
    }
)


def track_for_gpu(gpu: int) -> str:
    """Track name for a node id (negative ids are the host)."""
    return "host" if gpu < 0 else f"gpu{gpu}"


@dataclasses.dataclass(frozen=True)
class Span:
    """One traced interval, in simulated cycles."""

    name: str
    track: str
    start: int
    duration: int
    #: Sorted ``(key, value)`` pairs — kept as a tuple so spans stay
    #: hashable and comparison in tests is exact.
    args: Tuple[Tuple[str, int], ...] = ()


class _OpenOp:
    """A driver operation whose duration is not yet known."""

    __slots__ = ("name", "track", "start", "cursor", "children")

    def __init__(self, name: str, track: str, start: int) -> None:
        self.name = name
        self.track = track
        self.start = start
        #: Layout position for the next child span.
        self.cursor = start
        self.children: List[Span] = []


class SpanTracer:
    """Bounded span recorder with per-track sequential layout."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0
        self._stack: List[_OpenOp] = []
        #: Per-track end of the last recorded span; keeps spans on one
        #: track from overlapping when several operations share a start
        #: cycle (the stall cycles serialize, so should their spans).
        self._cursor: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.spans)

    def _append(self, span: Span) -> None:
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return
        self.spans.append(span)

    @staticmethod
    def _pack_args(args: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(args.items()))

    # ------------------------------------------------------------------
    # driver-operation spans
    # ------------------------------------------------------------------

    def op_begin(self, name: str, gpu: int, start: int) -> None:
        """Open an operation span on ``gpu``'s track at cycle ``start``."""
        track = track_for_gpu(gpu)
        start = max(start, self._cursor.get(track, 0))
        self._stack.append(_OpenOp(name, track, start))

    def op_end(self, duration: int, **args: int) -> None:
        """Close the innermost open operation with its final duration.

        Operations that cost nothing and produced no machine events are
        not recorded — a trace of millions of zero-cycle remote-access
        checks would drown the signal (and the capacity).
        """
        if not self._stack:
            raise RuntimeError("op_end without a matching op_begin")
        op = self._stack.pop()
        self._cursor[op.track] = max(
            self._cursor.get(op.track, 0), op.start + duration
        )
        if duration <= 0 and not op.children:
            return
        self._append(
            Span(op.name, op.track, op.start, duration,
                 self._pack_args(args))
        )
        for child in op.children:
            self._append(child)

    def on_event(self, event: Event) -> None:
        """EventLog listener: render machine events as (child) spans."""
        if event.kind not in _CHILD_KINDS:
            return
        args = self._pack_args({"vpn": event.vpn, "detail": event.detail})
        if self._stack:
            op = self._stack[-1]
            span = Span(
                event.kind.value, op.track, op.cursor, event.cycles, args
            )
            op.cursor += event.cycles
            op.children.append(span)
            return
        # Background event outside any operation (direct mechanic use,
        # unit tests): place it at the owning track's layout cursor.
        track = track_for_gpu(event.gpu)
        start = self._cursor.get(track, 0)
        self._append(Span(event.kind.value, track, start, event.cycles, args))
        self._cursor[track] = start + event.cycles

    # ------------------------------------------------------------------
    # direct recording
    # ------------------------------------------------------------------

    def record(
        self, name: str, track: str, start: int, duration: int, **args: int
    ) -> None:
        """Record a complete span on an explicitly named track."""
        if duration < 0:
            raise ValueError("span duration must be non-negative")
        self._append(Span(name, track, start, duration,
                          self._pack_args(args)))

    def instant(self, name: str, track: str, ts: int, **args: int) -> None:
        """Record a zero-duration (instant) event."""
        self._append(Span(name, track, ts, 0, self._pack_args(args)))

    def span_counts(self) -> Dict[str, int]:
        """Tally of recorded spans by name (for summaries and tests)."""
        tallies: Dict[str, int] = {}
        for span in self.spans:
            tallies[span.name] = tallies.get(span.name, 0) + 1
        return tallies


def _track_sort_key(track: str) -> Tuple[int, int, str]:
    """GPU tracks first (numerically), then host, engine, the rest."""
    if track.startswith("gpu") and track[3:].isdigit():
        return (0, int(track[3:]), track)
    if track == "host":
        return (1, 0, track)
    if track == ENGINE_TRACK:
        return (2, 0, track)
    return (3, 0, track)


def trace_events(
    spans: Sequence[Span],
    counter_samples: Sequence[Tuple[int, str, float]] = (),
) -> List[dict]:
    """Render spans (and metric samples) as trace events.

    ``M`` metadata events name the process and its per-track threads,
    ``X``/``i`` events carry the spans, and ``C`` events carry the
    counter samples.
    """
    tracks = sorted(
        {span.track for span in spans}, key=_track_sort_key
    )
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "GRIT simulator (cycles as us)"},
        }
    ]
    for track in tracks:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    for span in spans:
        record: dict = {
            "name": span.name,
            "cat": "sim",
            "ts": span.start,
            "pid": 0,
            "tid": tids[span.track],
            "args": dict(span.args),
        }
        if span.duration > 0:
            record["ph"] = "X"
            record["dur"] = span.duration
        else:
            record["ph"] = "i"
            record["s"] = "t"
        events.append(record)
    for ts, name, value in counter_samples:
        events.append(
            {
                "ph": "C",
                "name": name,
                "cat": "metrics",
                "ts": ts,
                "pid": 0,
                "args": {"value": value},
            }
        )
    return events


def to_chrome_trace(
    tracer: SpanTracer,
    counter_samples: Sequence[Tuple[int, str, float]] = (),
    metadata: Dict[str, object] | None = None,
) -> dict:
    """Render spans (and optional metric samples) as a Chrome trace.

    The result is a JSON-ready dict following the trace-event format:
    ``X`` (complete) events for spans, ``i`` (instant) events for
    zero-duration spans, ``C`` (counter) events for metric samples, and
    ``M`` metadata events naming the process and per-track threads.
    One simulated cycle is rendered as one trace microsecond.
    """
    other: Dict[str, object] = {"dropped_spans": tracer.dropped}
    if metadata:
        other.update(metadata)
    return {
        "displayTimeUnit": "ns",
        "otherData": other,
        "traceEvents": trace_events(tracer.spans, counter_samples),
    }


def write_chrome_trace(path: str, document: dict) -> None:
    """Serialize a trace document with a stable byte layout."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")

"""Typed metrics registry (pillar 2 of repro.obs).

Three instrument kinds, mirroring the Prometheus data model:

* **counter** — a monotonically non-decreasing total.  The simulator
  already accumulates its counts in :class:`~repro.stats.counters.
  EventCounters`; the registry's counters are *pull-style* — the
  sampler copies the current totals in at each sample tick, so the
  simulation fast path never touches the registry.
* **gauge** — a point-in-time value (a hit rate, a population).
* **histogram** — a bucketed distribution (fault-service cycles).

:meth:`MetricsRegistry.sample` snapshots every counter and gauge into
a time series; the series exports as JSON-lines.  Every metric must be
registered (with a description — the lint rule GRIT-C005 checks the
catalog is emitted and documented) before it is written to; writes to
unknown names raise, so a typo cannot silently create an undocumented
series.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Dict, List, Tuple


class MetricKind(enum.Enum):
    """Instrument kinds supported by the registry."""

    COUNTER = "counter"
    GAUGE = "gauge"
    HISTOGRAM = "histogram"


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """Identity and documentation of one metric."""

    name: str
    kind: MetricKind
    description: str
    unit: str = ""


#: Default histogram bucket upper bounds, in cycles: covers one L1 TLB
#: hit through a multi-page write-collapse storm (+Inf is implicit).
DEFAULT_BUCKETS: Tuple[int, ...] = (
    64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
)


class HistogramData:
    """Cumulative bucket counts plus sum/count, Prometheus-style."""

    def __init__(self, bounds: Tuple[int, ...] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with +Inf."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            pairs.append((float(bound), running))
        pairs.append((math.inf, self.count))
        return pairs

    def mean(self) -> float:
        """Average observed value (0 with no observations)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Registered metrics, their live values, and the sampled series."""

    def __init__(self) -> None:
        self._specs: Dict[str, MetricSpec] = {}
        self._values: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramData] = {}
        #: ``(ts, name, value)`` rows appended by :meth:`sample`.
        self.samples: List[Tuple[int, str, float]] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self, spec: MetricSpec, buckets: Tuple[int, ...] | None = None
    ) -> None:
        """Add one metric; duplicate names are rejected."""
        if spec.name in self._specs:
            raise ValueError(f"metric {spec.name!r} already registered")
        self._specs[spec.name] = spec
        if spec.kind is MetricKind.HISTOGRAM:
            self._histograms[spec.name] = HistogramData(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        else:
            self._values[spec.name] = 0.0

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._specs)

    def spec(self, name: str) -> MetricSpec:
        """The registered spec for ``name`` (raises on unknown names)."""
        self._require(name)
        return self._specs[name]

    def _require(self, name: str, kind: MetricKind | None = None) -> None:
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(
                f"metric {name!r} is not registered; add it to the "
                f"catalog (repro.obs.catalog) first"
            )
        if kind is not None and spec.kind is not kind:
            raise ValueError(
                f"metric {name!r} is a {spec.kind.value}, not a "
                f"{kind.value}"
            )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def inc(self, name: str, delta: float = 1.0) -> None:
        """Increment a counter."""
        self._require(name, MetricKind.COUNTER)
        if delta < 0:
            raise ValueError("counters only go up")
        self._values[name] += delta

    def set_total(self, name: str, value: float) -> None:
        """Pull-style counter update: overwrite the cumulative total."""
        self._require(name, MetricKind.COUNTER)
        if value < self._values[name]:
            raise ValueError(
                f"counter {name!r} cannot decrease "
                f"({self._values[name]} -> {value})"
            )
        self._values[name] = value

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to its current value."""
        self._require(name, MetricKind.GAUGE)
        self._values[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation."""
        self._require(name, MetricKind.HISTOGRAM)
        self._histograms[name].observe(value)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def value(self, name: str) -> float:
        """Current value of a counter or gauge."""
        self._require(name)
        if name in self._histograms:
            raise ValueError(f"{name!r} is a histogram; use histogram()")
        return self._values[name]

    def histogram(self, name: str) -> HistogramData:
        """The bucket data of a histogram metric."""
        self._require(name, MetricKind.HISTOGRAM)
        return self._histograms[name]

    def sample(self, ts: int) -> None:
        """Snapshot every counter and gauge into the time series."""
        for name in sorted(self._values):
            self.samples.append((ts, name, self._values[name]))

    def series(self, name: str) -> List[Tuple[int, float]]:
        """The sampled ``(ts, value)`` series of one metric."""
        self._require(name)
        return [(ts, value) for ts, n, value in self.samples if n == name]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Sampled series plus histogram summaries, one JSON per line."""
        lines = [
            json.dumps(
                {"ts": ts, "metric": name, "value": value}, sort_keys=True
            )
            for ts, name, value in self.samples
        ]
        for name in sorted(self._histograms):
            data = self._histograms[name]
            lines.append(
                json.dumps(
                    {
                        "metric": name,
                        "kind": "histogram",
                        "count": data.count,
                        "sum": data.total,
                        "buckets": {
                            _le_label(bound): count
                            for bound, count in data.cumulative_counts()
                        },
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _le_label(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return _format_number(bound)


def _format_number(value: float) -> str:
    """Integers without a trailing .0; floats with repr precision."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))

"""Metrics registry: instruments, sampling, exporters, the catalog."""

import json
import math

import pytest

from repro.obs import catalog
from repro.obs.catalog import build_registry
from repro.obs.metrics import (
    HistogramData,
    MetricKind,
    MetricSpec,
    MetricsRegistry,
)


def registry_with(name="m.total", kind=MetricKind.COUNTER):
    registry = MetricsRegistry()
    registry.register(MetricSpec(name, kind, "a metric"))
    return registry


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = registry_with()
        with pytest.raises(ValueError):
            registry.register(
                MetricSpec("m.total", MetricKind.GAUGE, "again")
            )

    def test_unknown_name_rejected_with_catalog_pointer(self):
        registry = registry_with()
        with pytest.raises(KeyError, match="catalog"):
            registry.inc("m.typo")

    def test_kind_mismatch_rejected(self):
        registry = registry_with()
        with pytest.raises(ValueError, match="counter"):
            registry.set_gauge("m.total", 1.0)


class TestCounters:
    def test_inc_and_set_total(self):
        registry = registry_with()
        registry.inc("m.total")
        registry.inc("m.total", 4)
        assert registry.value("m.total") == 5
        registry.set_total("m.total", 9)
        assert registry.value("m.total") == 9

    def test_counters_cannot_decrease(self):
        registry = registry_with()
        registry.set_total("m.total", 5)
        with pytest.raises(ValueError):
            registry.set_total("m.total", 4)
        with pytest.raises(ValueError):
            registry.inc("m.total", -1)


class TestHistograms:
    def test_observations_land_in_buckets(self):
        data = HistogramData(bounds=(10, 100))
        for value in (5, 10, 11, 500):
            data.observe(value)
        assert data.bucket_counts == [2, 1, 1]
        assert data.count == 4
        assert data.mean() == pytest.approx((5 + 10 + 11 + 500) / 4)

    def test_cumulative_counts_end_with_inf(self):
        data = HistogramData(bounds=(10, 100))
        data.observe(5)
        data.observe(50)
        pairs = data.cumulative_counts()
        assert pairs == [(10.0, 1), (100.0, 2), (math.inf, 2)]

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            HistogramData(bounds=(10, 10))
        with pytest.raises(ValueError):
            HistogramData(bounds=(100, 10))

    def test_registry_observe(self):
        registry = registry_with("h.cycles", MetricKind.HISTOGRAM)
        registry.observe("h.cycles", 3)
        assert registry.histogram("h.cycles").count == 1
        with pytest.raises(ValueError):
            registry.value("h.cycles")


class TestSampling:
    def build(self):
        registry = MetricsRegistry()
        registry.register(
            MetricSpec("b.total", MetricKind.COUNTER, "b")
        )
        registry.register(MetricSpec("a.rate", MetricKind.GAUGE, "a"))
        return registry

    def test_sample_snapshots_sorted_names(self):
        registry = self.build()
        registry.inc("b.total", 2)
        registry.set_gauge("a.rate", 0.5)
        registry.sample(100)
        registry.inc("b.total")
        registry.sample(200)
        assert registry.samples == [
            (100, "a.rate", 0.5),
            (100, "b.total", 2.0),
            (200, "a.rate", 0.5),
            (200, "b.total", 3.0),
        ]
        assert registry.series("b.total") == [(100, 2.0), (200, 3.0)]


class TestExporters:
    def build(self):
        registry = MetricsRegistry()
        registry.register(
            MetricSpec("c.total", MetricKind.COUNTER, "count of c")
        )
        registry.register(
            MetricSpec("h.cycles", MetricKind.HISTOGRAM, "h dist"),
            buckets=(10,),
        )
        registry.inc("c.total", 3)
        registry.observe("h.cycles", 7)
        registry.observe("h.cycles", 70)
        registry.sample(50)
        return registry

    def test_jsonl_rows_parse(self):
        lines = self.build().to_jsonl().splitlines()
        rows = [json.loads(line) for line in lines]
        assert {"ts": 50, "metric": "c.total", "value": 3.0} in rows
        hist = [r for r in rows if r.get("kind") == "histogram"]
        assert hist == [
            {
                "metric": "h.cycles",
                "kind": "histogram",
                "count": 2,
                "sum": 77.0,
                "buckets": {"10": 1, "+Inf": 2},
            }
        ]


class TestCatalog:
    def test_build_registry_registers_every_spec(self):
        registry = build_registry()
        assert len(registry.names()) == len(catalog.METRICS)
        for spec in catalog.METRICS:
            assert registry.spec(spec.name) == spec

    def test_catalog_names_are_unique(self):
        names = [spec.name for spec in catalog.METRICS]
        assert len(names) == len(set(names))

    def test_every_spec_has_a_description(self):
        for spec in catalog.METRICS:
            assert spec.description

"""Disk-backed result cache for cross-process reuse.

The in-process :class:`ExperimentRunner` cache dies with the process;
this cache persists result *summaries* (cycles, counters, breakdown —
everything the figures consume) as one JSON file per run key, so
repeated CLI invocations and benchmark reruns skip simulation.

Keys include a fingerprint of the base configuration, so changing any
latency constant or Table I parameter invalidates the cache
automatically.  Entries additionally carry a ``schema_version``;
entries written by a different schema (renamed counters, new latency
categories) are treated as misses rather than silently rehydrated with
missing fields.  Writes go through a temp file plus an atomic rename,
so concurrent sweep workers sharing one cache directory never observe
a torn JSON file.  Stored entries are rehydrated into
:class:`SimulationResult` objects with empty ``details`` marked
``from_cache`` — figure code only reads counters/breakdown/cycles, all
of which round-trip exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict

from repro.config import SystemConfig
from repro.constants import LatencyCategory, Scheme
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.sim.result import SimulationResult
from repro.stats.counters import EventCounters
from repro.stats.latency import LatencyBreakdown

#: Cache entry schema version.  Bump whenever the serialized shape
#: changes — a new/renamed :class:`EventCounters` field, a new
#: :class:`LatencyBreakdown` category, or a new top-level key — so
#: entries written by older code are rejected as misses instead of
#: rehydrating with silently-missing counters.  Bump it too when older
#: code stored wrong results under a key: version 2 cached ``grit_acud``
#: runs at the default GRIT settings whatever the key's threshold or
#: ablation flags said.
SCHEMA_VERSION = 3


class StaleCacheEntry(ValueError):
    """A cache file does not match the current result schema."""


def config_fingerprint(config: SystemConfig) -> str:
    """Stable hash of every configuration value."""
    payload = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _key_filename(key: RunKey, fingerprint: str) -> str:
    payload = json.dumps(
        dataclasses.asdict(key), sort_keys=True
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
    return f"{key.workload}-{key.policy}-{digest}-{fingerprint}.json"


def _serialize(result: SimulationResult) -> Dict[str, object]:
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": result.workload,
        "policy": result.policy,
        "total_cycles": result.total_cycles,
        "per_gpu_cycles": list(result.per_gpu_cycles),
        "num_gpus": result.num_gpus,
        "page_size": result.page_size,
        "counters": result.counters.as_dict(),
        "scheme_usage": {
            scheme.name: count
            for scheme, count in result.counters.scheme_usage.items()
        },
        "breakdown": {
            category.name: result.breakdown.cycles(category)
            for category in LatencyCategory
        },
    }


def result_digest(result: SimulationResult) -> str:
    """Stable hash of everything the figures consume from a result.

    Two runs with equal digests are bit-identical in cycles, counters,
    and latency breakdown — the equivalence the CI sweep smoke checks.
    The cache's ``schema_version`` is left out: it versions the entry
    format, not the result, so a schema bump keeps every digest.
    """
    data = _serialize(result)
    del data["schema_version"]
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _deserialize(data: Dict[str, object]) -> SimulationResult:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise StaleCacheEntry(
            f"cache entry schema {data.get('schema_version')!r} != "
            f"current {SCHEMA_VERSION}"
        )
    counters = EventCounters()
    stored = dict(data["counters"])
    stored.pop("total_faults", None)  # derived property
    known = vars(counters)
    for name, value in stored.items():
        if name not in known:
            raise StaleCacheEntry(
                f"cache entry has unknown counter {name!r}"
            )
        setattr(counters, name, value)
    counters.scheme_usage = {
        Scheme[name]: count
        for name, count in data["scheme_usage"].items()
    }
    breakdown = LatencyBreakdown()
    for name, cycles in data["breakdown"].items():
        breakdown.charge(LatencyCategory[name], cycles)
    return SimulationResult(
        workload=data["workload"],
        policy=data["policy"],
        total_cycles=data["total_cycles"],
        per_gpu_cycles=list(data["per_gpu_cycles"]),
        counters=counters,
        breakdown=breakdown,
        num_gpus=data["num_gpus"],
        page_size=data["page_size"],
        details={"from_cache": True},
    )


class DiskCachedRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that persists results on disk."""

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        base_config: SystemConfig | None = None,
        scale: float = 0.3,
        artifacts_dir: str | None = None,
    ) -> None:
        super().__init__(
            base_config=base_config,
            scale=scale,
            artifacts_dir=artifacts_dir,
        )
        self.cache_dir = str(cache_dir)
        os.makedirs(self.cache_dir, exist_ok=True)
        self._fingerprint = config_fingerprint(self.base_config)
        self.disk_hits = 0
        self.disk_misses = 0

    def run(self, key: RunKey) -> SimulationResult:
        """Serve from memory, then disk, then simulate (and persist)."""
        if key in self._cache:
            return self._cache[key]
        path = os.path.join(
            self.cache_dir, _key_filename(key, self._fingerprint)
        )
        result = self._load(path)
        if result is not None:
            self._cache[key] = result
            self.disk_hits += 1
            return result
        result = super().run(key)
        self.disk_misses += 1
        self._store(path, result)
        return result

    def _load(self, path: str) -> SimulationResult | None:
        """Rehydrate one entry; stale/torn/missing files are misses."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            return None
        try:
            return _deserialize(data)
        except (StaleCacheEntry, KeyError, TypeError):
            return None

    def _store(self, path: str, result: SimulationResult) -> None:
        """Atomic tmp-file + rename write, safe under concurrency.

        Concurrent workers may race on the same key; each writes its
        own temp file and the last rename wins.  Runs are
        deterministic, so every racer renames identical bytes — a
        reader can never observe a torn entry.
        """
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(_serialize(result), handle)
        os.replace(tmp, path)

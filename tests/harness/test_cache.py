"""Disk-backed result cache."""

import json

import pytest

from repro.config import SystemConfig
from repro.harness.cache import (
    SCHEMA_VERSION,
    DiskCachedRunner,
    StaleCacheEntry,
    _deserialize,
    _serialize,
    config_fingerprint,
    result_digest,
)
from repro.policies import make_policy
from repro.sim.engine import simulate
from repro.workloads import make_workload

#: fir/grit at scale 0.1 on the default config (4 GPUs, flat timing,
#: all-to-all fabric), and the same run under contention="queued".
FIR_GRIT_CYCLES = 1_038_972
FIR_GRIT_QUEUED_CYCLES = 1_051_658

#: Config field -> the value its retired ``GRIT_<FIELD>`` environment
#: override once forced on every run, unseen by the fingerprint.
RETIRED_OVERRIDES = {"contention": "queued", "topology": "ring"}


class TestResultDigest:
    def test_schema_bump_keeps_the_digest(self, monkeypatch):
        # The schema versions the cache entry format; a bump must not
        # change the digest of a bit-identical result.
        result = simulate(
            SystemConfig(),
            make_workload("fir", num_gpus=4, scale=0.05),
            make_policy("on_touch"),
        )
        digest = result_digest(result)
        monkeypatch.setattr(
            "repro.harness.cache.SCHEMA_VERSION", SCHEMA_VERSION + 1
        )
        assert result_digest(result) == digest


class TestFingerprint:
    def test_stable(self):
        assert config_fingerprint(SystemConfig()) == config_fingerprint(
            SystemConfig()
        )

    def test_sensitive_to_any_field(self):
        base = config_fingerprint(SystemConfig())
        assert config_fingerprint(SystemConfig(num_gpus=8)) != base
        assert (
            config_fingerprint(SystemConfig(issue_gap=5)) != base
        )


class TestEffectiveConfig:
    """The config is a run's only source of settings, so a cached
    result is always the result of the config its key fingerprints."""

    def test_environment_cannot_reshape_a_fingerprinted_run(
        self, tmp_path, monkeypatch
    ):
        for field, value in RETIRED_OVERRIDES.items():
            monkeypatch.setenv(f"GRIT_{field.upper()}", value)
        result = simulate(
            SystemConfig(),
            make_workload("fir", num_gpus=4, scale=0.1),
            make_policy("grit"),
        )
        assert result.total_cycles == FIR_GRIT_CYCLES
        assert result.details["contention"] == "none"
        assert result.details["topology"] == "all-to-all"

        default = config_fingerprint(SystemConfig())
        for field, value in RETIRED_OVERRIDES.items():
            changed = SystemConfig(**{field: value})
            assert config_fingerprint(changed) != default, field

        flat = DiskCachedRunner(tmp_path, scale=0.1)
        flat_result = flat.run(flat.key("fir", "grit"))
        assert flat_result.total_cycles == FIR_GRIT_CYCLES
        queued = DiskCachedRunner(
            tmp_path,
            base_config=SystemConfig(contention="queued"),
            scale=0.1,
        )
        queued_result = queued.run(queued.key("fir", "grit"))
        assert (queued.disk_hits, queued.disk_misses) == (0, 1)
        assert queued_result.total_cycles == FIR_GRIT_QUEUED_CYCLES


class TestDiskCachedRunner:
    def test_second_process_reads_from_disk(self, tmp_path):
        first = DiskCachedRunner(tmp_path, scale=0.05)
        key = first.key("fir", "on_touch")
        original = first.run(key)
        assert first.disk_misses == 1

        second = DiskCachedRunner(tmp_path, scale=0.05)
        cached = second.run(key)
        assert second.disk_hits == 1
        assert second.disk_misses == 0
        assert cached.total_cycles == original.total_cycles
        assert cached.counters.as_dict() == original.counters.as_dict()
        assert cached.breakdown.as_dict() == original.breakdown.as_dict()
        assert cached.details.get("from_cache")

    def test_speedups_identical_through_cache(self, tmp_path):
        live = DiskCachedRunner(tmp_path, scale=0.05)
        direct = live.speedup("st", "grit", "on_touch")
        rehydrated = DiskCachedRunner(tmp_path, scale=0.05)
        assert rehydrated.speedup("st", "grit", "on_touch") == direct

    def test_config_change_invalidates(self, tmp_path):
        first = DiskCachedRunner(tmp_path, scale=0.05)
        first.run(first.key("fir", "on_touch"))
        other = DiskCachedRunner(
            tmp_path, base_config=SystemConfig(issue_gap=8), scale=0.05
        )
        other.run(other.key("fir", "on_touch"))
        assert other.disk_hits == 0
        assert other.disk_misses == 1

    def test_distinct_keys_distinct_files(self, tmp_path):
        runner = DiskCachedRunner(tmp_path, scale=0.05)
        runner.run(runner.key("fir", "on_touch"))
        runner.run(runner.key("fir", "grit"))
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 2

    def _entry_files(self, tmp_path):
        return list(tmp_path.glob("*.json"))

    def test_stale_schema_version_is_a_miss(self, tmp_path):
        first = DiskCachedRunner(tmp_path, scale=0.05)
        first.run(first.key("fir", "on_touch"))
        (entry,) = self._entry_files(tmp_path)
        data = json.loads(entry.read_text())
        data["schema_version"] = SCHEMA_VERSION - 1
        entry.write_text(json.dumps(data))
        second = DiskCachedRunner(tmp_path, scale=0.05)
        second.run(second.key("fir", "on_touch"))
        assert second.disk_hits == 0
        assert second.disk_misses == 1

    def test_missing_schema_version_is_a_miss(self, tmp_path):
        first = DiskCachedRunner(tmp_path, scale=0.05)
        first.run(first.key("fir", "on_touch"))
        (entry,) = self._entry_files(tmp_path)
        data = json.loads(entry.read_text())
        del data["schema_version"]
        entry.write_text(json.dumps(data))
        second = DiskCachedRunner(tmp_path, scale=0.05)
        second.run(second.key("fir", "on_touch"))
        assert second.disk_misses == 1

    def test_renamed_counter_is_a_miss(self, tmp_path):
        """Current schema version but an unknown counter name must be
        rejected, not silently rehydrated with the field dropped."""
        first = DiskCachedRunner(tmp_path, scale=0.05)
        first.run(first.key("fir", "on_touch"))
        (entry,) = self._entry_files(tmp_path)
        data = json.loads(entry.read_text())
        counters = data["counters"]
        name = sorted(counters)[0]
        counters[f"legacy_{name}"] = counters.pop(name)
        entry.write_text(json.dumps(data))
        second = DiskCachedRunner(tmp_path, scale=0.05)
        second.run(second.key("fir", "on_touch"))
        assert second.disk_misses == 1

    def test_torn_json_is_a_miss(self, tmp_path):
        first = DiskCachedRunner(tmp_path, scale=0.05)
        key = first.key("fir", "on_touch")
        original = first.run(key)
        (entry,) = self._entry_files(tmp_path)
        entry.write_text(entry.read_text()[: entry.stat().st_size // 2])
        second = DiskCachedRunner(tmp_path, scale=0.05)
        repaired = second.run(key)
        assert second.disk_misses == 1
        assert repaired.total_cycles == original.total_cycles

    def test_writes_leave_no_tmp_files(self, tmp_path):
        runner = DiskCachedRunner(tmp_path, scale=0.05)
        runner.run(runner.key("fir", "on_touch"))
        runner.run(runner.key("fir", "grit"))
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_deserialize_raises_on_stale(self, tmp_path):
        runner = DiskCachedRunner(tmp_path, scale=0.05)
        payload = _serialize(runner.run(runner.key("fir", "on_touch")))
        payload["schema_version"] = 999
        with pytest.raises(StaleCacheEntry):
            _deserialize(payload)

    def test_scheme_usage_round_trips(self, tmp_path):
        first = DiskCachedRunner(tmp_path, scale=0.05)
        key = first.key("st", "grit")
        original = first.run(key)
        second = DiskCachedRunner(tmp_path, scale=0.05)
        cached = second.run(key)
        assert (
            cached.counters.scheme_usage_fractions()
            == original.counters.scheme_usage_fractions()
        )

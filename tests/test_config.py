"""Configuration validation and Table I defaults."""

import pytest

from repro.config import (
    BASELINE_CONFIG,
    GritConfig,
    LatencyModel,
    SystemConfig,
    TLBConfig,
    WalkerConfig,
)
from repro.errors import ConfigError


class TestTLBConfig:
    def test_table_i_l1_geometry(self):
        tlb = BASELINE_CONFIG.l1_tlb
        assert (tlb.entries, tlb.ways, tlb.lookup_latency) == (32, 32, 1)
        assert tlb.sets == 1  # fully associative

    def test_table_i_l2_geometry(self):
        tlb = BASELINE_CONFIG.l2_tlb
        assert (tlb.entries, tlb.ways, tlb.lookup_latency) == (512, 16, 10)
        assert tlb.sets == 32

    def test_rejects_nondivisible_ways(self):
        with pytest.raises(ConfigError):
            TLBConfig(entries=10, ways=3, lookup_latency=1)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ConfigError):
            TLBConfig(entries=0, ways=1, lookup_latency=1)


class TestWalkerConfig:
    def test_table_i_defaults(self):
        walker = WalkerConfig()
        assert walker.walkers == 8
        assert walker.walk_queue_entries == 64
        assert walker.walk_cache_entries == 128
        assert walker.latency_per_level == 100

    def test_walk_latencies(self):
        walker = WalkerConfig(latency_per_level=100, levels=4)
        assert walker.full_walk_latency == 400
        assert walker.cached_walk_latency == 100

    def test_rejects_zero_walkers(self):
        with pytest.raises(ConfigError):
            WalkerConfig(walkers=0)


class TestLatencyModel:
    def test_transfer_includes_serialization(self, latency):
        short = latency.page_transfer_nvlink(4096)
        long = latency.page_transfer_nvlink(2 * 1024 * 1024)
        assert long > short > latency.nvlink_latency

    def test_pcie_slower_than_nvlink(self, latency):
        assert latency.page_transfer_pcie(4096) > (
            latency.page_transfer_nvlink(4096)
        )

    def test_mlp_scaling_floors_at_one(self):
        model = LatencyModel(data_access_mlp=1000)
        assert model.scaled_data_access(5) == 1

    def test_cost_ordering_local_remote_host(self, latency):
        local = latency.scaled_data_access(latency.local_dram_access)
        remote = latency.scaled_remote_access()
        host = latency.scaled_host_remote_access()
        assert local < remote < host < latency.host_fault_service

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            LatencyModel(local_dram_access=-1)

    def test_rejects_bad_discounts(self):
        with pytest.raises(ConfigError):
            LatencyModel(acud_discount=1.5)
        with pytest.raises(ConfigError):
            LatencyModel(transfw_discount=-0.1)


class TestGritConfig:
    def test_defaults_match_section_v(self, grit_config):
        assert grit_config.fault_threshold == 4
        assert grit_config.pa_cache_entries == 64
        assert grit_config.pa_cache_ways == 4
        assert grit_config.max_group_pages == 512

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            GritConfig(fault_threshold=0)

    def test_rejects_bad_group_size(self):
        with pytest.raises(ConfigError):
            GritConfig(max_group_pages=16)

    def test_rejects_bad_pa_cache_geometry(self):
        with pytest.raises(ConfigError):
            GritConfig(pa_cache_entries=10, pa_cache_ways=4)

    def test_rejects_non_power_of_two_pa_cache_sets(self):
        # 48 entries / 4 ways = 12 sets, which low VPN bits cannot index.
        with pytest.raises(ConfigError, match="power of two"):
            GritConfig(pa_cache_entries=48, pa_cache_ways=4)


class TestSystemConfig:
    def test_table_i_defaults(self, config):
        assert config.num_gpus == 4
        assert config.page_size == 4096
        assert config.dram_footprint_fraction == 0.70
        assert config.access_counter_threshold == 256
        assert config.pages_per_counter_group == 16

    def test_dram_frames_split_across_gpus(self, config):
        # 70% of 1000 pages over 4 GPUs.
        assert config.dram_frames_per_gpu(1000) == 175

    def test_dram_frames_floor_at_one(self, config):
        assert config.dram_frames_per_gpu(1) == 1

    def test_dram_frames_reject_empty_footprint(self, config):
        with pytest.raises(ConfigError):
            config.dram_frames_per_gpu(0)

    def test_counter_group_for_large_pages(self):
        big = SystemConfig(page_size=2 * 1024 * 1024)
        assert big.pages_per_counter_group == 1

    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(ConfigError):
            SystemConfig(page_size=5000)

    def test_rejects_zero_gpus(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=0)

    def test_replace_returns_modified_copy(self, config):
        other = config.replace(num_gpus=8)
        assert other.num_gpus == 8
        assert config.num_gpus == 4


class TestConfigSerialization:
    def test_to_dict_is_json_friendly(self, config):
        import json

        data = config.to_dict()
        json.dumps(data)  # must not raise
        assert data["num_gpus"] == 4
        assert data["eviction_policy"] == "lru"
        assert data["latency"]["host_fault_service"] == 4000
        assert data["grit"]["fault_threshold"] == 4

    def test_to_dict_reflects_overrides(self, config):
        from repro.constants import EvictionPolicy

        other = config.replace(
            num_gpus=8, eviction_policy=EvictionPolicy.RANDOM
        )
        data = other.to_dict()
        assert data["num_gpus"] == 8
        assert data["eviction_policy"] == "random"

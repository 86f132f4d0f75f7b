"""Simulation engine: translation path, fault flows, interleaving."""

import pytest

from repro.config import SystemConfig
from repro.constants import PAGE_SIZE_2M, LatencyCategory
from repro.errors import SimulationError
from repro.policies import make_policy
from repro.sim.engine import Engine, simulate
from tests.conftest import build_trace


class TestBasics:
    def test_trace_gpu_mismatch_rejected(self, two_gpu_trace):
        with pytest.raises(SimulationError):
            Engine(
                SystemConfig(num_gpus=4),
                two_gpu_trace,
                make_policy("on_touch"),
            )

    def test_all_accesses_processed(self, two_gpu_trace):
        config = SystemConfig(num_gpus=2)
        result = simulate(config, two_gpu_trace, make_policy("on_touch"))
        assert result.counters.accesses == two_gpu_trace.total_accesses
        assert result.counters.reads == 4
        assert result.counters.writes == 4

    def test_clocks_advance_monotonically(self, two_gpu_trace):
        config = SystemConfig(num_gpus=2)
        result = simulate(config, two_gpu_trace, make_policy("on_touch"))
        assert all(clock > 0 for clock in result.per_gpu_cycles)
        assert result.total_cycles == max(result.per_gpu_cycles)

    def test_empty_stream_for_one_gpu(self):
        trace = build_trace([[(0, False)], []], footprint_pages=4)
        config = SystemConfig(num_gpus=2)
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.per_gpu_cycles[1] == 0
        assert result.counters.accesses == 1

    def test_deterministic_across_runs(self, two_gpu_trace):
        config = SystemConfig(num_gpus=2)
        first = simulate(config, two_gpu_trace, make_policy("grit"))
        second = simulate(config, two_gpu_trace, make_policy("grit"))
        assert first.total_cycles == second.total_cycles
        assert first.counters.as_dict() == second.counters.as_dict()


class TestTranslationPath:
    def test_cold_access_faults_once(self):
        trace = build_trace([[(0, False), (0, False), (0, False)]])
        config = SystemConfig(num_gpus=1)
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.counters.local_page_faults == 1

    def test_tlb_hit_avoids_second_walk(self):
        trace = build_trace([[(0, False)] * 10])
        config = SystemConfig(num_gpus=1)
        engine = Engine(config, trace, make_policy("on_touch"))
        result = engine.run()
        assert result.counters.l2_tlb_misses == 1
        assert engine.machine.gpus[0].tlbs.l1.hits == 9

    def test_write_to_replica_raises_protection_fault(self):
        # GPU 0 reads, GPU 1 reads (replica), then GPU 1 writes.
        trace = build_trace(
            [
                [(0, False)],
                [(0, False), (0, True)],
            ],
            footprint_pages=8,
        )
        config = SystemConfig(num_gpus=2)
        result = simulate(config, trace, make_policy("duplication"))
        assert result.counters.protection_faults >= 1
        assert result.counters.write_collapses >= 1

    def test_local_walk_charged_to_local_category(self):
        trace = build_trace([[(0, False)]])
        result = simulate(
            SystemConfig(num_gpus=1), trace, make_policy("on_touch")
        )
        assert result.breakdown.cycles(LatencyCategory.LOCAL) > 0

    def test_remote_access_charged_under_access_counter(self):
        trace = build_trace([[(0, False)] * 5], footprint_pages=4)
        result = simulate(
            SystemConfig(num_gpus=1), trace, make_policy("access_counter")
        )
        assert result.counters.remote_accesses > 0
        assert result.breakdown.cycles(LatencyCategory.REMOTE_ACCESS) > 0


class TestLargePages:
    def test_2m_pages_fold_traces(self):
        # Two 4 KB pages inside one 2 MB page: one fault total.
        trace = build_trace(
            [[(0, False), (511, False)]], footprint_pages=1024
        )
        config = SystemConfig(num_gpus=1, page_size=PAGE_SIZE_2M)
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.counters.local_page_faults == 1

    def test_2m_pages_split_across_boundary(self):
        trace = build_trace(
            [[(0, False), (512, False)]], footprint_pages=1024
        )
        config = SystemConfig(num_gpus=1, page_size=PAGE_SIZE_2M)
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.counters.local_page_faults == 2


class TestGpsWrites:
    def test_gps_write_broadcast_charged(self):
        trace = build_trace(
            [
                [(0, False), (0, True), (0, True)],
                [(0, False)],
            ],
            footprint_pages=8,
        )
        config = SystemConfig(num_gpus=2)
        result = simulate(config, trace, make_policy("gps"))
        assert result.counters.write_collapses == 0
        assert result.counters.protection_faults == 0


class TestResultDetails:
    def test_details_include_link_traffic(self, two_gpu_trace):
        config = SystemConfig(num_gpus=2)
        result = simulate(config, two_gpu_trace, make_policy("on_touch"))
        assert result.details["pcie_bytes"] > 0
        assert "policy_description" in result.details

    def test_evictions_aggregated_from_dram(self):
        # Footprint 10 pages on 1 GPU: capacity 7 frames -> evictions.
        accesses = [(vpn, False) for vpn in range(10)] * 3
        trace = build_trace([accesses], footprint_pages=10)
        config = SystemConfig(num_gpus=1)
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.counters.evictions > 0

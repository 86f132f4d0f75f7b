"""Scale-out acceptance: switched fabrics end to end.

The issue's acceptance bar: an 8-GPU ``nvswitch`` run under queued
contention must report nonzero switch-port wait cycles, surface them
through the obs catalog, and the topology spec must be selectable via
config and CLI (``--topology``, covered by the CI smoke).
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.obs import RunObservation
from repro.obs import catalog
from repro.interconnect.routing import TopologySpec
from repro.policies import make_policy
from repro.sim.engine import Engine
from repro.workloads import make_workload


def _run(num_gpus: int, topology: str, observation=None):
    config = SystemConfig(
        num_gpus=num_gpus, topology=topology, contention="queued"
    )
    trace = make_workload("fir", num_gpus=num_gpus, scale=0.05)
    engine = Engine(
        config, trace, make_policy("grit"), observation=observation
    )
    return engine.run()


class TestSwitchedFabricEndToEnd:
    def test_8gpu_nvswitch_reports_switch_port_waits(self):
        result = _run(8, "nvswitch")
        assert result.details["topology"] == "nvswitch:4"
        assert result.details["contention"] == "queued"
        assert result.details["switch_wait_cycles"] > 0
        assert result.details["link_wait_cycles"] > 0

    def test_switch_metrics_flow_through_the_catalog(self):
        observation = RunObservation(sample_interval=2_000)
        _run(8, "nvswitch", observation=observation)
        registry = observation.registry
        assert registry.value(catalog.SWITCH_WAIT_CYCLES) > 0
        assert registry.value(catalog.SWITCH_MESSAGES) > 0
        assert registry.value(catalog.SWITCH_PEAK_OCCUPANCY) > 0

    def test_switchless_fabrics_report_zero_switch_metrics(self):
        observation = RunObservation(sample_interval=2_000)
        result = _run(4, "all-to-all", observation=observation)
        assert result.details["switch_wait_cycles"] == 0
        registry = observation.registry
        assert registry.value(catalog.SWITCH_WAIT_CYCLES) == 0
        assert registry.value(catalog.SWITCH_MESSAGES) == 0
        assert registry.value(catalog.SWITCH_PEAK_OCCUPANCY) == 0


class TestTopologySpecParsing:
    def test_round_trips_through_describe(self):
        for text, num_gpus in [
            ("all-to-all", 4),
            ("nvswitch:2", 8),
            ("ring", 6),
            ("multi-node:4", 16),
        ]:
            spec = TopologySpec.parse(text, num_gpus)
            assert TopologySpec.parse(
                spec.describe(), num_gpus
            ) == spec

    def test_nvswitch_group_defaults_to_quad(self):
        assert TopologySpec.parse("nvswitch", 8).group_size == 4
        # Small boxes fall back to one switch over all GPUs.
        assert TopologySpec.parse("nvswitch", 2).group_size == 2

    @pytest.mark.parametrize(
        "text,num_gpus",
        [
            ("mesh", 4),
            ("ring:3", 6),
            ("all-to-all:2", 4),
            ("nvswitch:banana", 8),
            ("nvswitch:3", 8),
            ("nvswitch:16", 8),
            ("multi-node:1", 8),
            ("multi-node:3", 8),
            ("", 4),
        ],
    )
    def test_invalid_specs_rejected(self, text, num_gpus):
        with pytest.raises(ConfigError):
            TopologySpec.parse(text, num_gpus)

    def test_config_validates_topology_at_construction(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=8, topology="nvswitch:3")

"""Topology: all-to-all NVLink plus per-GPU PCIe host links."""

import pytest

from repro.config import LatencyModel, SystemConfig
from repro.constants import HOST_NODE
from repro.errors import ConfigError
from repro.interconnect.topology import Topology
from repro.sim.timing import TimingKernel


@pytest.fixture
def topology(latency: LatencyModel) -> Topology:
    return Topology(4, latency)


def flat_kernel(topology: Topology, latency: LatencyModel) -> TimingKernel:
    config = SystemConfig(num_gpus=topology.num_gpus, latency=latency)
    return TimingKernel(config, topology)


class TestTopology:
    def test_gpu_pairs_share_one_link(self, topology):
        assert topology.route(0, 1).hops[0] is topology.route(1, 0).hops[0]

    def test_distinct_pairs_have_distinct_links(self, topology):
        assert topology.route(0, 1).hops[0] is not (
            topology.route(0, 2).hops[0]
        )

    def test_host_routes_over_pcie(self, topology):
        link = topology.route(2, HOST_NODE).hops[0]
        assert link.name == "pcie-2"
        assert topology.route(HOST_NODE, 2).hops == (link,)

    def test_pcie_slower_than_nvlink(self, topology, latency):
        kernel = flat_kernel(topology, latency)
        nvlink = kernel.transfer(0, 1, 4096, now=0)
        pcie = kernel.transfer(0, HOST_NODE, 4096, now=0)
        assert pcie > nvlink

    def test_self_link_rejected(self, topology):
        with pytest.raises(ConfigError):
            topology.route(1, 1)

    def test_unknown_gpu_rejected(self, topology):
        with pytest.raises(ConfigError):
            topology.route(0, 9)

    def test_traffic_totals(self, topology, latency):
        kernel = flat_kernel(topology, latency)
        kernel.transfer(0, 1, 1000, now=0)
        kernel.transfer(2, HOST_NODE, 500, now=0)
        assert topology.total_nvlink_bytes() == 1000
        assert topology.total_pcie_bytes() == 500

    def test_single_gpu_topology_has_host_link(self, latency):
        kernel = flat_kernel(Topology(1, latency), latency)
        assert kernel.transfer(0, HOST_NODE, 100, now=0) > 0

    def test_rejects_zero_gpus(self, latency):
        with pytest.raises(ConfigError):
            Topology(0, latency)


class TestTopologyResources:
    """Link enumeration and contention roll-ups."""

    def test_links_enumerates_fabric_and_uplink(self, topology):
        names = {link.name for link in topology.links()}
        assert "nvlink-0-1" in names
        assert "pcie-0" in names
        assert "pcie-host" in names
        # 4 GPUs: C(4,2) NVLinks + 4 PCIe + the shared host uplink.
        assert len(topology.links()) == 6 + 4 + 1

    def test_host_uplink_not_routed_directly(self, topology):
        # The uplink is a shared resource every host route crosses,
        # never one of a route's wire hops.
        uplink = topology.route(0, HOST_NODE).shared[0]
        assert uplink.name == "pcie-host"
        for gpu in range(4):
            route = topology.route(gpu, HOST_NODE)
            assert route.shared == (uplink,)
            assert uplink not in route.hops

    def test_wait_and_peak_rollups(self, topology):
        link = topology.route(0, 1).hops[0]
        link.reserve_transfer(0, 4096)
        link.reserve_transfer(0, 4096)
        assert topology.total_wait_cycles() == link.wait_cycles
        assert topology.peak_occupancy() == link.peak_occupancy
        assert topology.total_wait_cycles() > 0

    def test_total_messages_counts_all_links(self, topology, latency):
        kernel = flat_kernel(topology, latency)
        kernel.transfer(0, 1, 100, now=0)
        kernel.control_message(2, HOST_NODE, now=0)
        assert topology.total_messages() == 2

    def test_single_gpu_rollups_empty(self, latency):
        topo = Topology(1, latency)
        assert topo.total_wait_cycles() == 0
        assert topo.peak_occupancy() == 0

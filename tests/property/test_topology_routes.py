"""Property-based tests (hypothesis) on topology routing invariants.

Every fabric shape must satisfy the same structural contract: routes
are symmetric by construction (``route(b, a)`` traverses the same
links as ``route(a, b)``, reversed), no node routes to itself, and hop
counts match the shape's closed form.  On the classic 4-GPU
all-to-all, the routed timing kernel must reproduce the pre-routing
closed-form charges bit for bit — the property that keeps every
committed golden and bench baseline valid.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LatencyModel, SystemConfig
from repro.constants import HOST_NODE
from repro.errors import ConfigError
from repro.interconnect.routing import TOPOLOGY_KINDS, TopologySpec
from repro.interconnect.topology import Topology
from repro.sim.timing import TimingKernel


@st.composite
def fabric_shapes(draw):
    """A valid (spec, num_gpus) pair across all four topology kinds."""
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    if kind == "nvswitch":
        group = draw(st.sampled_from([2, 4, 8]))
        num_gpus = group * draw(st.integers(min_value=1, max_value=3))
    elif kind == "multi-node":
        nodes = draw(st.sampled_from([2, 3, 4]))
        num_gpus = nodes * draw(st.integers(min_value=1, max_value=4))
        kind = f"multi-node:{nodes}"
    else:
        num_gpus = draw(st.integers(min_value=2, max_value=16))
    if kind == "nvswitch":
        kind = f"nvswitch:{group}"
    return TopologySpec.parse(kind, num_gpus), num_gpus


def _build(spec: TopologySpec, num_gpus: int) -> Topology:
    return Topology(num_gpus, LatencyModel(), spec=spec)


class TestRouteInvariants:
    @given(shape=fabric_shapes(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_routes_are_symmetric(self, shape, data):
        spec, num_gpus = shape
        topology = _build(spec, num_gpus)
        endpoints = list(range(num_gpus)) + [HOST_NODE]
        src = data.draw(st.sampled_from(endpoints), label="src")
        dst = data.draw(st.sampled_from(endpoints), label="dst")
        if src == dst:
            return
        forward = topology.route(src, dst)
        backward = topology.route(dst, src)
        # Same Link objects, traversed in the opposite order.
        assert backward.hops == tuple(reversed(forward.hops))
        assert backward.shared == tuple(reversed(forward.shared))

    @given(shape=fabric_shapes(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_no_self_routing(self, shape, data):
        spec, num_gpus = shape
        topology = _build(spec, num_gpus)
        node = data.draw(
            st.sampled_from(list(range(num_gpus)) + [HOST_NODE])
        )
        with pytest.raises(ConfigError):
            topology.route(node, node)

    @given(shape=fabric_shapes(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hop_counts_match_shape(self, shape, data):
        spec, num_gpus = shape
        topology = _build(spec, num_gpus)
        a = data.draw(
            st.integers(min_value=0, max_value=num_gpus - 1), label="a"
        )
        b = data.draw(
            st.integers(min_value=0, max_value=num_gpus - 1), label="b"
        )
        if a == b:
            return
        route = topology.route(a, b)
        if spec.kind == "all-to-all":
            assert route.hop_count == 1
        elif spec.kind == "nvswitch":
            same_group = a // spec.group_size == b // spec.group_size
            assert route.hop_count == (2 if same_group else 3)
        elif spec.kind == "ring":
            forward = (b - a) % num_gpus
            distance = min(forward, num_gpus - forward)
            assert route.hop_count == distance
            assert route.hop_count <= num_gpus // 2
        else:  # multi-node
            per_node = num_gpus // spec.nodes
            same_node = a // per_node == b // per_node
            if same_node:
                assert route.hop_count == 1
                assert route.shared == ()
            else:
                assert route.hop_count == 3
                # Both islands' root ports are crossed.
                assert len(route.shared) == 2

    @given(shape=fabric_shapes(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_host_routes_are_single_hop(self, shape, data):
        spec, num_gpus = shape
        topology = _build(spec, num_gpus)
        gpu = data.draw(st.integers(min_value=0, max_value=num_gpus - 1))
        route = topology.route(gpu, HOST_NODE)
        # One PCIe wire hop, queued behind the node's root port.
        assert route.hop_count == 1
        assert len(route.shared) == 1

    @given(shape=fabric_shapes())
    @settings(max_examples=40, deadline=None)
    def test_route_table_covers_every_pair(self, shape):
        spec, num_gpus = shape
        topology = _build(spec, num_gpus)
        keys = {key for key, _ in topology.route_items()}
        endpoints = list(range(num_gpus)) + [HOST_NODE]
        # GPU<->GPU and GPU<->host in both directions; no host<->host.
        assert keys == {
            (a, b) for a in endpoints for b in endpoints if a != b
        }


#: Latency models with the route-sensitive knobs varied.
latency_models = st.builds(
    LatencyModel,
    nvlink_latency=st.integers(min_value=1, max_value=2_000),
    pcie_latency=st.integers(min_value=1, max_value=3_000),
    remote_dram_access=st.integers(min_value=1, max_value=5_000),
    host_remote_access=st.integers(min_value=1, max_value=8_000),
    far_access_mlp=st.integers(min_value=1, max_value=8),
    gps_store_broadcast=st.integers(min_value=1, max_value=500),
)


def _flat_kernel(latency: LatencyModel) -> TimingKernel:
    """A contention-free kernel on the classic 4-GPU all-to-all."""
    config = SystemConfig(num_gpus=4, latency=latency)
    topology = Topology(4, latency)
    return TimingKernel(config, topology)


class TestAllToAllClosedForms:
    """Routing reproduces the pre-routing 4-GPU charges exactly."""

    @given(
        latency=latency_models,
        size=st.integers(min_value=0, max_value=2 << 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_transfer_costs(self, latency, size):
        kernel = _flat_kernel(latency)
        assert kernel.transfer(
            0, 1, size, 0
        ) == latency.page_transfer_nvlink(size)
        assert kernel.transfer(
            2, HOST_NODE, size, 0
        ) == latency.page_transfer_pcie(size)
        assert kernel.transfer(
            3, 0, size, 0
        ) == latency.page_transfer_nvlink(size)

    @given(latency=latency_models)
    @settings(max_examples=50, deadline=None)
    def test_control_message_costs(self, latency):
        kernel = _flat_kernel(latency)
        assert kernel.control_message(0, 3, 0) == latency.nvlink_latency
        assert (
            kernel.control_message(1, HOST_NODE, 0)
            == latency.pcie_latency
        )

    @given(latency=latency_models, is_write=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_far_access_costs(self, latency, is_write):
        kernel = _flat_kernel(latency)
        local = latency.scaled_data_access(latency.local_dram_access)
        remote = latency.scaled_remote_access()
        host = latency.scaled_host_remote_access()
        if is_write:
            remote = max(1, remote // 2)
            host = max(1, host // 2)
        assert kernel.remote_access(0, 2, is_write, 0) == (
            remote,
            max(0, remote - local),
        )
        assert kernel.host_access(1, is_write, 0) == (
            host,
            max(0, host - local),
        )

    @given(latency=latency_models)
    @settings(max_examples=50, deadline=None)
    def test_fixed_charges(self, latency):
        kernel = _flat_kernel(latency)
        # Single-hop fabric: broadcast pays one hop per subscriber and
        # collapse invalidation is exactly the classic per-GPU charge.
        assert (
            kernel.gps_broadcast(0, [1, 2, 3])
            == 3 * latency.gps_store_broadcast
        )
        assert kernel.collapse_invalidation(0, 1) == kernel.invalidation(
            1
        )

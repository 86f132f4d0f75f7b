"""Declarative topology specs and multi-hop route construction.

The paper evaluates a 4-GPU all-to-all NVLink box; scaling the
reproduction past that shape needs the interconnect to be a parameter,
not a hard-coded mesh.  A :class:`TopologySpec` names one of four
fabric shapes and :func:`build_fabric` turns it into concrete
:class:`~repro.interconnect.link.Link` resources plus one
:class:`Route` per node pair:

``all-to-all``
    The classic shape: one NVLink per GPU pair, one PCIe link per GPU,
    one shared host root port.  Every route is a single hop, so the
    timing kernel's charges are bit-for-bit the pre-routing simulator.

``nvswitch`` / ``nvswitch:<group_size>``
    GPUs attach in groups of ``group_size`` (default 4) to one
    :class:`~repro.interconnect.switch.NVSwitch` each; switches connect
    all-to-all over trunk links.  Intra-group routes cross two ports,
    cross-group routes add the trunk (three hops).

``ring``
    Each GPU links only to its neighbours; routes walk the shorter
    direction around the ring (ties resolve by building each pair's
    route once and mirroring it, so ``route(a, b)`` and ``route(b, a)``
    always traverse the same links).

``multi-node`` / ``multi-node:<nodes>``
    GPUs split into ``nodes`` (default 2) all-to-all NVLink islands;
    each node has its own host root port, and cross-node traffic
    crosses both PCIe endpoints plus a host-side inter-node bridge
    (sharing both nodes' root ports, the existing root-port model).

Select the shape with ``SystemConfig(topology=...)`` or the
``--topology`` CLI flag; :meth:`TopologySpec.parse` validates it when
the config is built.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.constants import HOST_NODE
from repro.errors import ConfigError
from repro.interconnect.link import Link
from repro.interconnect.switch import NVSwitch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import LatencyModel

#: Fabric shapes accepted by ``SystemConfig.topology``.
TOPOLOGY_KINDS = ("all-to-all", "nvswitch", "ring", "multi-node")

#: Default GPUs per switch group (DGX-style quad).
DEFAULT_GROUP_SIZE = 4

#: Default host-bridged island count for ``multi-node``.
DEFAULT_NODES = 2


@dataclasses.dataclass(frozen=True)
class TopologySpec:
    """One parsed, validated fabric shape."""

    kind: str = "all-to-all"
    #: GPUs per switch group (``nvswitch`` only).
    group_size: int = DEFAULT_GROUP_SIZE
    #: Host-bridged island count (``multi-node`` only).
    nodes: int = DEFAULT_NODES

    @classmethod
    def parse(cls, text: str, num_gpus: int) -> "TopologySpec":
        """Parse ``kind[:param]`` and validate it against ``num_gpus``."""
        if not isinstance(text, str) or not text:
            raise ConfigError(f"topology spec must be a string, got {text!r}")
        kind, _, param = text.partition(":")
        if kind not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"unknown topology {kind!r}; expected one of "
                f"{'/'.join(TOPOLOGY_KINDS)}"
            )
        if param and kind not in ("nvswitch", "multi-node"):
            raise ConfigError(
                f"topology {kind!r} takes no parameter, got {text!r}"
            )
        value = 0
        if param:
            try:
                value = int(param)
            except ValueError:
                raise ConfigError(
                    f"topology parameter in {text!r} must be an integer"
                ) from None
        if kind == "nvswitch":
            group_size = value or min(DEFAULT_GROUP_SIZE, num_gpus)
            if group_size < 1:
                raise ConfigError("nvswitch group size must be >= 1")
            if group_size > num_gpus:
                raise ConfigError(
                    f"nvswitch group size {group_size} exceeds "
                    f"{num_gpus} GPUs"
                )
            if num_gpus % group_size:
                raise ConfigError(
                    f"{num_gpus} GPUs do not divide into nvswitch "
                    f"groups of {group_size}"
                )
            return cls(kind="nvswitch", group_size=group_size)
        if kind == "multi-node":
            nodes = value or DEFAULT_NODES
            if nodes < 2:
                raise ConfigError("multi-node needs at least 2 nodes")
            if num_gpus % nodes:
                raise ConfigError(
                    f"{num_gpus} GPUs do not split evenly across "
                    f"{nodes} nodes"
                )
            return cls(kind="multi-node", nodes=nodes)
        return cls(kind=kind)

    def describe(self) -> str:
        """Canonical spec string (parses back to an equal spec)."""
        if self.kind == "nvswitch":
            return f"nvswitch:{self.group_size}"
        if self.kind == "multi-node":
            return f"multi-node:{self.nodes}"
        return self.kind


@dataclasses.dataclass(frozen=True)
class Route:
    """One node pair's path through the fabric.

    ``hops`` are the wire links the payload crosses in traversal
    order; ``shared`` are root-port-style resources the payload also
    occupies without paying their latency twice (reserved in queued
    contention mode only, exactly like the classic host uplink).
    """

    hops: Tuple[Link, ...]
    shared: Tuple[Link, ...] = ()

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    def reversed(self) -> "Route":
        """The mirror route (same links, opposite traversal order)."""
        return Route(
            hops=tuple(reversed(self.hops)),
            shared=tuple(reversed(self.shared)),
        )


@dataclasses.dataclass
class Fabric:
    """Concrete links, switches, and routes built from one spec."""

    spec: TopologySpec
    #: Direct GPU-GPU links keyed by ``(low, high)`` GPU ids
    #: (all-to-all meshes, ring segments, intra-node islands).
    nvlinks: Dict[Tuple[int, int], Link]
    #: Per-GPU host links, indexed by GPU id.
    pcie: List[Link]
    #: Shared host root ports, one per host island.
    host_uplinks: List[Link]
    #: Switch planes (``nvswitch`` fabrics only).
    switches: List[NVSwitch]
    #: Host-side inter-node bridges (``multi-node`` only).
    bridges: List[Link]
    #: GPU id -> host island (index into ``host_uplinks``).
    node_of: List[int]
    #: ``(src, dst)`` -> route, for every ordered GPU pair plus every
    #: GPU <-> ``HOST_NODE`` pair.  No self routes.
    routes: Dict[Tuple[int, int], Route]


def _nvlink(latency: "LatencyModel", name: str) -> Link:
    return Link(
        name=name,
        latency=latency.nvlink_latency,
        bytes_per_cycle=latency.nvlink_bytes_per_cycle,
    )


def _pcie_link(latency: "LatencyModel", name: str) -> Link:
    return Link(
        name=name,
        latency=latency.pcie_latency,
        bytes_per_cycle=latency.pcie_bytes_per_cycle,
    )


def build_fabric(
    spec: TopologySpec, num_gpus: int, latency: "LatencyModel"
) -> Fabric:
    """Instantiate links and precompute every route for one spec."""
    if num_gpus < 1:
        raise ConfigError("topology needs at least one GPU")
    # Re-validate so directly-constructed specs can't skip the
    # divisibility rules.
    spec = TopologySpec.parse(spec.describe(), num_gpus)
    pcie = [_pcie_link(latency, f"pcie-{g}") for g in range(num_gpus)]
    builder = _BUILDERS[spec.kind]
    fabric = builder(spec, num_gpus, latency, pcie)
    _add_host_routes(fabric)
    _mirror_routes(fabric)
    return fabric


def _add_host_routes(fabric: Fabric) -> None:
    """GPU <-> host: the per-GPU PCIe hop plus the shared root port."""
    for gpu, pcie in enumerate(fabric.pcie):
        uplink = fabric.host_uplinks[fabric.node_of[gpu]]
        fabric.routes[(gpu, HOST_NODE)] = Route(
            hops=(pcie,), shared=(uplink,)
        )


def _mirror_routes(fabric: Fabric) -> None:
    """Fill in every reverse route as the mirror of its forward twin.

    Building one direction and reflecting it guarantees the route
    symmetry invariant (``route(b, a)`` traverses exactly
    ``route(a, b)``'s links, reversed) for every spec, including ring
    ties at the halfway point.
    """
    for key in list(fabric.routes):
        reverse = (key[1], key[0])
        if reverse not in fabric.routes:
            fabric.routes[reverse] = fabric.routes[key].reversed()


def _build_all_to_all(
    spec: TopologySpec,
    num_gpus: int,
    latency: "LatencyModel",
    pcie: List[Link],
) -> Fabric:
    nvlinks: Dict[Tuple[int, int], Link] = {}
    routes: Dict[Tuple[int, int], Route] = {}
    for a in range(num_gpus):
        for b in range(a + 1, num_gpus):
            link = _nvlink(latency, f"nvlink-{a}-{b}")
            nvlinks[(a, b)] = link
            routes[(a, b)] = Route(hops=(link,))
    return Fabric(
        spec=spec,
        nvlinks=nvlinks,
        pcie=pcie,
        host_uplinks=[_pcie_link(latency, "pcie-host")],
        switches=[],
        bridges=[],
        node_of=[0] * num_gpus,
        routes=routes,
    )


def _build_nvswitch(
    spec: TopologySpec,
    num_gpus: int,
    latency: "LatencyModel",
    pcie: List[Link],
) -> Fabric:
    group = spec.group_size
    switches = [
        NVSwitch(f"nvswitch-{i}") for i in range(num_gpus // group)
    ]
    for gpu in range(num_gpus):
        plane = switches[gpu // group]
        plane.add_port(
            gpu, _nvlink(latency, f"{plane.name}-port-{gpu}")
        )
    trunks: Dict[Tuple[int, int], Link] = {}
    for i in range(len(switches)):
        for j in range(i + 1, len(switches)):
            trunk = _nvlink(latency, f"nvswitch-trunk-{i}-{j}")
            trunks[(i, j)] = trunk
            switches[i].add_trunk(trunk)
    routes: Dict[Tuple[int, int], Route] = {}
    for a in range(num_gpus):
        for b in range(a + 1, num_gpus):
            plane_a, plane_b = a // group, b // group
            if plane_a == plane_b:
                hops = (
                    switches[plane_a].port(a),
                    switches[plane_a].port(b),
                )
            else:
                hops = (
                    switches[plane_a].port(a),
                    trunks[(plane_a, plane_b)],
                    switches[plane_b].port(b),
                )
            routes[(a, b)] = Route(hops=hops)
    return Fabric(
        spec=spec,
        nvlinks={},
        pcie=pcie,
        host_uplinks=[_pcie_link(latency, "pcie-host")],
        switches=switches,
        bridges=[],
        node_of=[0] * num_gpus,
        routes=routes,
    )


def _build_ring(
    spec: TopologySpec,
    num_gpus: int,
    latency: "LatencyModel",
    pcie: List[Link],
) -> Fabric:
    nvlinks: Dict[Tuple[int, int], Link] = {}
    if num_gpus > 1:
        for g in range(num_gpus):
            a, b = sorted((g, (g + 1) % num_gpus))
            if (a, b) not in nvlinks:
                nvlinks[(a, b)] = _nvlink(latency, f"ring-{a}-{b}")

    def segment(a: int, b: int) -> Link:
        return nvlinks[tuple(sorted((a, b)))]  # type: ignore[index]

    routes: Dict[Tuple[int, int], Route] = {}
    for a in range(num_gpus):
        for b in range(a + 1, num_gpus):
            forward = b - a
            if 2 * forward <= num_gpus:
                stops = list(range(a, b + 1))
            else:
                backward = num_gpus - forward
                stops = [
                    g % num_gpus
                    for g in range(a, a - backward - 1, -1)
                ]
            hops = tuple(
                segment(x, y) for x, y in zip(stops, stops[1:])
            )
            routes[(a, b)] = Route(hops=hops)
    return Fabric(
        spec=spec,
        nvlinks=nvlinks,
        pcie=pcie,
        host_uplinks=[_pcie_link(latency, "pcie-host")],
        switches=[],
        bridges=[],
        node_of=[0] * num_gpus,
        routes=routes,
    )


def _build_multi_node(
    spec: TopologySpec,
    num_gpus: int,
    latency: "LatencyModel",
    pcie: List[Link],
) -> Fabric:
    nodes = spec.nodes
    per_node = num_gpus // nodes
    node_of = [g // per_node for g in range(num_gpus)]
    host_uplinks = [
        _pcie_link(latency, f"pcie-host-{n}") for n in range(nodes)
    ]
    nvlinks: Dict[Tuple[int, int], Link] = {}
    bridges: Dict[Tuple[int, int], Link] = {}
    for i in range(nodes):
        for j in range(i + 1, nodes):
            bridges[(i, j)] = _pcie_link(
                latency, f"node-bridge-{i}-{j}"
            )
    routes: Dict[Tuple[int, int], Route] = {}
    for a in range(num_gpus):
        for b in range(a + 1, num_gpus):
            na, nb = node_of[a], node_of[b]
            if na == nb:
                link = _nvlink(latency, f"nvlink-{a}-{b}")
                nvlinks[(a, b)] = link
                routes[(a, b)] = Route(hops=(link,))
            else:
                # Cross-node: out over the source GPU's PCIe, across
                # the host-side bridge, in over the destination's PCIe
                # — occupying both nodes' root ports on the way.
                routes[(a, b)] = Route(
                    hops=(pcie[a], bridges[(na, nb)], pcie[b]),
                    shared=(host_uplinks[na], host_uplinks[nb]),
                )
    return Fabric(
        spec=spec,
        nvlinks=nvlinks,
        pcie=pcie,
        host_uplinks=host_uplinks,
        switches=[],
        bridges=list(bridges.values()),
        node_of=node_of,
        routes=routes,
    )


_BUILDERS = {
    "all-to-all": _build_all_to_all,
    "nvswitch": _build_nvswitch,
    "ring": _build_ring,
    "multi-node": _build_multi_node,
}

"""System topology: a routed fabric between GPUs and the host.

The default shape reproduces Figure 2's DGX-style box — every GPU pair
connected with NVLink, each GPU on PCIe to the CPU behind one shared
root port — and stays bit-for-bit identical to the pre-routing
simulator.  Scale-out shapes (``nvswitch`` switch groups, ``ring``,
host-bridged ``multi-node``) come from a
:class:`~repro.interconnect.routing.TopologySpec`: every node pair
resolves to a precomputed multi-hop :class:`~repro.interconnect.
routing.Route` and the timing kernel charges (and, in queued mode,
reserves) each hop along it.
"""

from __future__ import annotations

from typing import Dict, ItemsView, List, Tuple

from repro.config import LatencyModel
from repro.errors import ConfigError
from repro.interconnect.link import Link
from repro.interconnect.routing import Route, TopologySpec, build_fabric
from repro.interconnect.switch import NVSwitch


class Topology:
    """A routed GPU fabric plus per-GPU host links."""

    def __init__(
        self,
        num_gpus: int,
        latency: LatencyModel,
        spec: TopologySpec | None = None,
    ) -> None:
        if num_gpus < 1:
            raise ConfigError("topology needs at least one GPU")
        self.num_gpus = num_gpus
        self.spec = spec if spec is not None else TopologySpec()
        fabric = build_fabric(self.spec, num_gpus, latency)
        self._nvlinks: Dict[Tuple[int, int], Link] = fabric.nvlinks
        self._pcie: List[Link] = fabric.pcie
        self._host_uplinks: List[Link] = fabric.host_uplinks
        self.switches: List[NVSwitch] = fabric.switches
        self._bridges: List[Link] = fabric.bridges
        self._node_of: List[int] = fabric.node_of
        self._routes: Dict[Tuple[int, int], Route] = fabric.routes

    # -- routing -------------------------------------------------------

    def route(self, src: int, dst: int) -> Route:
        """The route between two nodes (HOST_NODE for the CPU)."""
        if src == dst:
            raise ConfigError("no route from a node to itself")
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise ConfigError(
                f"no route between node {src} and node {dst}"
            ) from None

    def route_items(self) -> ItemsView[Tuple[int, int], Route]:
        """Every ``(src, dst) -> route`` entry of the fabric."""
        return self._routes.items()

    # -- link inventory ------------------------------------------------

    def links(self) -> List[Link]:
        """Every link of the fabric (GPU fabric, PCIe, bridges, roots)."""
        return [
            *self._gpu_fabric_links(),
            *self._pcie,
            *self._bridges,
            *self._host_uplinks,
        ]

    def _gpu_fabric_links(self) -> List[Link]:
        """Direct GPU-GPU links plus every switch port and trunk."""
        return [*self._nvlinks.values(), *self.switch_links()]

    def switch_links(self) -> List[Link]:
        """Every switch port and trunk (empty on switchless fabrics)."""
        links: List[Link] = []
        for switch in self.switches:
            links.extend(switch.links())
        return links

    # -- traffic rollups -----------------------------------------------

    def total_nvlink_bytes(self) -> int:
        """GPU-fabric traffic moved so far (multi-hop counts per hop)."""
        return sum(
            link.bytes_transferred for link in self._gpu_fabric_links()
        )

    def total_pcie_bytes(self) -> int:
        """Host-GPU traffic moved so far (bridge hops included)."""
        return sum(
            link.bytes_transferred
            for link in [*self._pcie, *self._bridges]
        )

    def total_messages(self) -> int:
        """Total messages (control + transfers) across every link."""
        return sum(link.messages for link in self.links())

    def total_wait_cycles(self) -> int:
        """Cumulative link queueing delay (contended mode only)."""
        return sum(link.wait_cycles for link in self.links())

    def peak_occupancy(self) -> int:
        """Largest backlog any link reservation observed on arrival."""
        return max(
            (link.peak_occupancy for link in self.links()), default=0
        )

    # -- switch rollups (the ``interconnect.switch.*`` series) ---------

    def switch_wait_cycles(self) -> int:
        """Cycles reservations queued on switch ports and trunks."""
        return sum(switch.wait_cycles() for switch in self.switches)

    def switch_messages(self) -> int:
        """Transfers + control messages carried through any switch."""
        return sum(switch.messages() for switch in self.switches)

    def switch_peak_occupancy(self) -> int:
        """Largest backlog any switch port/trunk reservation observed."""
        return max(
            (switch.peak_occupancy() for switch in self.switches),
            default=0,
        )

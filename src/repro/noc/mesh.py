"""Fabric builder for the Hermes NoC.

"The Hermes NoC follows a mesh topology, justified to facilitate routing,
IP cores placement and chip layout generation" (paper Section 2.1).

The builder itself is topology-agnostic: it instantiates whatever
node/link graph a :class:`~repro.noc.topology.Topology` plugin
describes (the paper's mesh by default, or a torus / concentrated
mesh), wiring one handshake channel pair per link and one local
channel pair per attachment node.  Building ``Mesh(2, 2)`` through the
default plugin produces bit-identical hardware — same component and
wire names, same creation order — as the original hand-coded mesh.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..sim import Component, HandshakeTx
from .flit import FLIT_BITS
from .router import HermesRouter
from .routing import OPPOSITE, Port
from .topology import MeshTopology, Topology

Address = Tuple[int, int]


class Mesh(Component):
    """A fabric of Hermes routers, fully wired from a topology plugin.

    Routers on neighbouring graph nodes are connected by one handshake
    channel per direction.  Each attachment node's local port is exposed
    as a channel pair so a :class:`~repro.noc.ni.NetworkInterface` (or
    an IP core) can attach.
    """

    def __init__(
        self,
        width: Optional[int] = None,
        height: Optional[int] = None,
        buffer_depth: int = 2,
        routing_cycles: int = 7,
        stats=None,
        topology: Optional[Topology] = None,
    ):
        if topology is None:
            topology = MeshTopology(width, height)
        super().__init__(topology.name)
        self.topology = topology
        self.width = topology.width
        self.height = topology.height
        self.routers: Dict[Address, HermesRouter] = {}
        #: channel pairs for the local port of each attachment node:
        #: (into-router channel, out-of-router channel)
        self.local_ports: Dict[Address, Tuple[HandshakeTx, HandshakeTx]] = {}

        for (x, y) in topology.routers():
            router = HermesRouter(
                f"router{topology.label((x, y))}",
                (x, y),
                buffer_depth=buffer_depth,
                routing_cycles=routing_cycles,
                stats=stats,
                topology=topology,
            )
            self.routers[(x, y)] = router
            self.add_child(router)

        # Inter-router links: one channel per direction per graph edge,
        # in the plugin's deterministic wiring order.
        for (x, y), port, nb in topology.builder_links():
            router = self.routers[(x, y)]
            neighbour = self.routers[nb]
            opposite = OPPOSITE[Port(port)]
            here, there = topology.label((x, y)), topology.label(nb)
            fwd = HandshakeTx(f"link{here}>{there}", data_width=FLIT_BITS)
            rev = HandshakeTx(f"link{there}>{here}", data_width=FLIT_BITS)
            router.attach_output(port, fwd)
            neighbour.attach_input(opposite, fwd)
            neighbour.attach_output(opposite, rev)
            router.attach_input(port, rev)

        # Local port channels (IP side attaches later), one per node.
        for node in topology.nodes():
            lbl = topology.label(node)
            router = self.routers[topology.node_router(node)]
            port = topology.local_port(node)
            into = HandshakeTx(f"local{lbl}.in", data_width=FLIT_BITS)
            out = HandshakeTx(f"local{lbl}.out", data_width=FLIT_BITS)
            router.attach_input(port, into)
            router.attach_output(port, out)
            self.local_ports[node] = (into, out)

    # -- telemetry -----------------------------------------------------------

    def attach_telemetry(self, sink) -> None:
        """Register every router as a track and enable its event hooks.

        Each router also emits one ``router_config`` instant carrying its
        grid coordinates and routing service time, so an exported trace
        is self-describing for the post-mortem analyzer
        (:mod:`repro.telemetry.analysis`).  Non-mesh fabrics additionally
        emit one ``topology`` instant with the plugin descriptor so the
        analyzer replays the plugin's routing function instead of XY.
        """
        if self.topology.kind != "mesh":
            sink.track(self.name, process="noc")
            sink.instant(self.name, "topology", 0, **self.topology.descriptor())
        for (x, y), router in sorted(self.routers.items()):
            sink.track(router.name, process="noc")
            router.sink = sink
            sink.instant(
                router.name,
                "router_config",
                0,
                x=x,
                y=y,
                routing_cycles=router.routing_cycles,
            )

    # -- queries ------------------------------------------------------------

    def router(self, address: Address) -> HermesRouter:
        return self.routers[address]

    def local_channels(self, address: Address) -> Tuple[HandshakeTx, HandshakeTx]:
        """(into-router, out-of-router) channels of a node's local port."""
        return self.local_ports[address]

    @property
    def idle(self) -> bool:
        """True when no router holds flits or open connections."""
        return not any(r.busy for r in self.routers.values())

    def addresses(self):
        """All attachment-node addresses in (y, x) raster order."""
        return list(self.topology.nodes())

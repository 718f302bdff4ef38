"""Fabric builder for the Hermes NoC.

"The Hermes NoC follows a mesh topology, justified to facilitate routing,
IP cores placement and chip layout generation" (paper Section 2.1).

The builder itself is topology-agnostic: it instantiates whatever
node/link graph a :class:`~repro.noc.topology.Topology` plugin
describes (the paper's mesh by default, or a torus / concentrated
mesh), with one :class:`Link` per direction of each router-to-router
link and one link pair per attachment node.  Building ``Mesh(2, 2)``
through the default plugin produces bit-identical hardware — same
component and wire names, same creation order — as the original
hand-coded mesh.

The mesh is also the fabric: the one kernel unit for its routers.  It
keeps its own list of awake routers and its own wake heap, evaluates
the awake ones in router order, and then marks the receiving end of
each link presented and the sending end of each link taken, for the
next eval.  Every channel is a :class:`Link` record, a node's Local
port included, and its tx/data/ack wires are views of the record:
nothing is driven on it.  A network interface steps its
links by the routers' rule and appends them to the fabric's list; the
mesh marks their routers at the start of its next eval (or at the end
of this one, for an interface evaluated before it in the same cycle).
It marks an interface by lowering the interface's ``due`` and waking
its kernel unit for the next cycle.  A router's eval returns ``None``
while a port is marked for the next cycle, and otherwise the control
cycle it is next due at, or ``SLEEP`` until a mark; the mesh books that
cycle in its heap and returns the earliest one to the kernel when no
router is listed.  Under strict lock-step (or with no kernel) its
routers examine every port every cycle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..sim import SLEEP, Component
from ..sim.wire import FieldWire
from .flit import FLIT_BITS
from .router import HermesRouter
from .routing import OPPOSITE, Port
from .topology import MeshTopology, Topology

Address = Tuple[int, int]

_FI = attrgetter("_fi")


class Link:
    """One direction of a channel from a router port to another, or
    between a router port and a network interface (``None`` at that
    end, and ``ni`` the interface attached there, if any).

    The sender presents a flit (``valid`` 1, ``flit``), the receiver
    takes it (``taken`` 1), and the sender pops it (``taken`` 0) and
    presents the next or withdraws (``valid`` 0).  ``at`` is the cycle
    of the last step, which the other side sees from the next cycle on;
    ``fifo`` is the receiving router's input buffer.  The channel's
    wires ``tx``, ``data`` and ``ack`` are views of ``valid``, ``flit``
    and ``taken``.
    """

    __slots__ = ("valid", "flit", "taken", "at", "fifo", "src", "src_bit",
                 "dst", "dst_bit", "ni", "tx", "data", "ack")

    def __init__(self, name: str, src, out: int, dst, inp: int):
        self.valid = self.flit = self.taken = 0
        self.at = -1
        self.fifo = self.ni = None
        self.src, self.src_bit = src, 1 << out
        self.dst, self.dst_bit = dst, 1 << inp
        self.tx = FieldWire(f"{name}.tx", self, "valid", 1)
        self.data = FieldWire(f"{name}.data", self, "flit", FLIT_BITS)
        self.ack = FieldWire(f"{name}.ack", self, "taken", 1)

    def wires(self) -> Tuple[FieldWire, FieldWire, FieldWire]:
        return (self.tx, self.data, self.ack)

    def step(self, cycle: int) -> None:
        """The network interface at one end stepped this link at
        *cycle*: have the fabric mark the router at the other end."""
        self.at = cycle
        router = self.src if self.dst is None else self.dst
        router._sent.append(self)
        router.wake()


class Mesh(Component):
    """A fabric of Hermes routers, fully wired from a topology plugin.

    Routers on neighbouring graph nodes are connected by one link per
    direction.  Each attachment node's local port is exposed as a
    link pair so a :class:`~repro.noc.ni.NetworkInterface` can attach.
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
        #: link pairs for the local port of each attachment node:
        #: (into-router link, out-of-router link)
        self.local_ports: Dict[Address, Tuple[Link, Link]] = {}
        #: the routers in evaluation order
        self._order: List[HermesRouter] = []
        #: fabric state: event-driven (the mesh is a kernel unit) or
        #: every port every cycle; routers listed for the next cycle;
        #: booked control wakes (cycle, router index); routers holding
        #: flits (the routers keep it); links presented or taken since
        #: the marks (the routers and network interfaces append); and
        #: whether the next eval examines every port
        self._event = False
        self._next: List[HermesRouter] = []
        self._heap: list = []
        self._holding: Dict[HermesRouter, None] = {}
        self._sent: List[Link] = []
        self._all = True

        for (x, y) in topology.routers():
            router = HermesRouter(
                f"router{topology.label((x, y))}",
                (x, y),
                buffer_depth=buffer_depth,
                routing_cycles=routing_cycles,
                stats=stats,
                topology=topology,
            )
            router._fi = len(self._order)
            router._sent = self._sent
            router._holding = self._holding
            self._order.append(router)
            self.routers[(x, y)] = router
            self.add_child(router)

        # Inter-router links: one per direction per graph edge, in the
        # plugin's deterministic wiring order.
        for (x, y), port, nb in topology.builder_links():
            router = self.routers[(x, y)]
            neighbour = self.routers[nb]
            opposite = OPPOSITE[Port(port)]
            here, there = topology.label((x, y)), topology.label(nb)
            fwd = Link(f"link{here}>{there}", router, port, neighbour, opposite)
            rev = Link(f"link{there}>{here}", neighbour, opposite, router, port)
            router.attach_output(port, fwd)
            neighbour.attach_input(opposite, fwd)
            neighbour.attach_output(opposite, rev)
            router.attach_input(port, rev)

        # Local port links (IP side attaches later), one pair per node.
        for node in topology.nodes():
            lbl = topology.label(node)
            router = self.routers[topology.node_router(node)]
            port = topology.local_port(node)
            into = Link(f"local{lbl}.in", None, port, router, port)
            out = Link(f"local{lbl}.out", router, port, None, port)
            router.attach_input(port, into)
            router.attach_output(port, out)
            self.local_ports[node] = (into, out)

    # -- the fabric ----------------------------------------------------------

    def elaborated(self) -> None:
        """Mark only the ports that moved when the mesh is a kernel
        unit; otherwise every port of every router every cycle."""
        event = self._sched is self
        if event != self._event:
            self._event = event
            self._all = True

    def eval(self, cycle: int) -> Optional[float]:
        nxt = cycle + 1
        sent = self._sent
        if sent:
            # links network interfaces stepped since the marks; one
            # stepped this cycle, before this eval, is marked after it
            seen = [link for link in sent if link.at < cycle]
            sent[:] = [link for link in sent if link.at == cycle]
            self._mark(seen, cycle)
        run = self._next
        self._next = listed = []
        if not self._event:
            for r in self._order:
                r._mi, r._mo = r._in_mask, r._out_mask
                r.eval(cycle)
            self._mark(sent, nxt)
            sent.clear()
            self._next = []
            return None
        heap = self._heap
        if self._all:
            self._all = False
            heap.clear()
            run = list(self._order)
            for r in run:
                r._mi |= r._in_mask
                r._mo |= r._out_mask
                r._at = cycle
                r._due = None
        else:
            while heap and heap[0][0] <= cycle:
                due, i = heappop(heap)
                r = self._order[i]
                if r._due == due:
                    r._due = None
                    if r._at != cycle:
                        r._at = cycle
                        run.append(r)
            run.sort(key=_FI)
        for r in run:
            due = r.eval(cycle)
            if due is None or due == nxt:
                r._at = nxt
                listed.append(r)
            elif due == SLEEP:
                r._due = None
            elif due != r._due:
                r._due = due
                heappush(heap, (due, r._fi))
        self._mark(sent, nxt)
        sent.clear()
        if listed:
            return None
        # the earliest control wake a sleeping router still holds
        order = self._order
        while heap and order[heap[0][1]]._due != heap[0][0]:
            heappop(heap)
        return heap[0][0] if heap else SLEEP

    def _mark(self, links: List[Link], nxt: int) -> None:
        """Mark the sending end of each link taken and the receiving end
        of each link presented, for the eval at *nxt*."""
        listed = self._next
        for link in links:
            if link.taken:
                r = link.src
                if r is not None:
                    r._mo |= link.src_bit
            elif link.valid:
                r = link.dst
                if r is not None:
                    r._mi |= link.dst_bit
                    fifo = link.fifo
                    if fifo._count == fifo.capacity:
                        continue  # it waits: no eval before a pop
            else:
                continue  # withdrawn
            if r is None:  # a network interface's end
                if link.ni is not None:
                    link.ni.mark(nxt)
            elif r._at != nxt:
                r._at = nxt
                listed.append(r)

    def credit(self, to_cycle: int) -> None:
        """Credit only the routers holding flits: an idle router has no
        control step or stall span to account."""
        for r in self._holding:
            r.credit(to_cycle)

    def reset(self) -> None:
        super().reset()
        self._restart()

    def restore_state(self, state: dict) -> None:
        # the routers restored every port marked and no control credit
        # pending, so the fabric evaluates all of them at once
        self._restart()
        self.wake()

    def _restart(self) -> None:
        # a restored flit is visible from the restored cycle on
        at = self._kernel.cycle - 1 if self._kernel is not None else -1
        for r in self._order:
            for link in r.in_ch + r.out_ch:
                if link is not None:
                    link.at = at
        self._sent.clear()
        self._next = []
        self._all = True

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

    def local_channels(self, address: Address) -> Tuple[Link, Link]:
        """(into-router, out-of-router) links of a node's local port."""
        return self.local_ports[address]

    @property
    def idle(self) -> bool:
        """True when no router holds flits or open connections (O(1):
        the routers keep :attr:`_holding`)."""
        return not self._holding

    def addresses(self):
        """All attachment-node addresses in (y, x) raster order."""
        return list(self.topology.nodes())

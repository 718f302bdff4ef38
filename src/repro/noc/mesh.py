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

The mesh is also the fabric: the one kernel unit for its routers.  It
keeps its own list of awake routers and its own wake heap, evaluates
the awake ones in router order, and commits the router-to-router wires
itself, turning each rising ``tx`` into a mark on the receiving input
and each rising ``ack`` into a mark on the sending output.  A change on
a network interface's boundary wire reaches it through the kernel's
member hook (:meth:`Mesh.member_input`).  The mesh applies the kernel's
sleep contract to its routers: a router's eval returns ``None`` while a
port is marked for the next cycle, and otherwise the control cycle it
is next due at, or ``SLEEP`` until a mark; the mesh books that cycle in
its heap and returns the earliest one to the kernel when no router is
listed.  Its ``credit`` hands a skipped span, or a settlement, to the
routers holding flits or listed.  Under strict lock-step (or with no kernel) the mesh
examines every port of every router every cycle instead.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..sim import SLEEP, Component, HandshakeTx, Wire
from .flit import FLIT_BITS
from .router import HermesRouter
from .routing import OPPOSITE, Port
from .topology import MeshTopology, Topology

Address = Tuple[int, int]

_FI = attrgetter("_fi")


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
        #: the routers in evaluation order
        self._order: List[HermesRouter] = []
        #: tx/ack wire -> (router, is an input, port bit) it marks
        self._marks: Dict[Wire, tuple] = {}
        #: router-to-router wires, committed by the fabric itself
        self._link_wires: List[Wire] = []
        #: fabric state: event-driven (the mesh is a kernel unit) or
        #: every port every cycle; routers listed for the next cycle;
        #: booked control wakes (cycle, router index); routers asleep
        #: holding flits; wires driven since the fabric's last commit;
        #: and whether the next eval examines every port of every router
        self._event = False
        self._next: List[HermesRouter] = []
        self._heap: list = []
        self._n_held = 0
        self._driven: List[Wire] = []
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
            self._order.append(router)
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
            self._link(fwd, router, port, neighbour, opposite)
            self._link(rev, neighbour, opposite, router, port)

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
            # the IP side is a kernel unit: its drives reach the router
            # through the kernel's member hook
            self._marks[into.tx] = (router, True, 1 << port)
            self._marks[out.ack] = (router, False, 1 << port)
            router.watch_wires([into.tx, out.ack])

    def _link(
        self, ch: HandshakeTx, sender, out: int, receiver, inp: int
    ) -> None:
        """Index a router-to-router channel for the fabric's commit."""
        self._link_wires += ch.wires()
        self._marks[ch.tx] = (receiver, True, 1 << int(inp))
        self._marks[ch.ack] = (sender, False, 1 << int(out))

    # -- the fabric ----------------------------------------------------------

    def elaborated(self) -> None:
        """Take the router-to-router wires back from the kernel's commit
        queue when the mesh is a kernel unit; otherwise examine every
        port of every router every cycle."""
        event = self._sched is self
        if event:
            for w in self._link_wires:
                w._queue = self._driven
        if event != self._event:
            self._event = event
            for r in self._order:
                r._sweep_in = 0 if event else r._in_mask
                r._sweep_out = 0 if event else r._out_mask
            self._all = True

    def eval(self, cycle: int) -> Optional[float]:
        if not self._event:
            for r in self._order:
                r.eval(cycle)
            return None
        nxt = cycle + 1
        run = self._next
        self._next = listed = []
        heap = self._heap
        if self._all:
            self._all = False
            heap.clear()
            self._n_held = 0
            run = list(self._order)
            for r in run:
                r._mi |= r._in_mask
                r._mo |= r._out_mask
                r._at = cycle
                r._due = None
                r._held = False
        else:
            while heap and heap[0][0] <= cycle:
                due, i = heappop(heap)
                r = self._order[i]
                if r._due == due:
                    r._due = None
                    if r._at != cycle:
                        r._at = cycle
                        run.append(r)
                        if r._held:
                            r._held = False
                            self._n_held -= 1
            run.sort(key=_FI)
        for r in run:
            due = r.eval(cycle)
            if due is None or due == nxt:
                r._at = nxt
                listed.append(r)
                continue
            if due == SLEEP:
                r._due = None
                if not r._req and not r._conns:
                    continue  # asleep idle
            elif due != r._due:
                r._due = due
                heappush(heap, (due, r._fi))
            # a request or an open connection: asleep holding flits
            r._held = True
            self._n_held += 1
        driven = self._driven
        if driven:
            marks = self._marks
            for w in driven:
                w._queued = False
                v = w._next
                if w.value != v:
                    w.value = v
                    if v:
                        m = marks.get(w)
                        if m is not None:
                            self._mark(m, nxt)
            driven.clear()
        if self._next:
            return None
        # the earliest control wake a sleeping router still holds
        order = self._order
        while heap and order[heap[0][1]]._due != heap[0][0]:
            heappop(heap)
        return heap[0][0] if heap else SLEEP

    def credit(self, to_cycle: int) -> None:
        """Under the fabric, credit only the routers that can hold
        uncredited work: those asleep holding flits and those listed for
        the next cycle (an idle sleeping router counts nothing)."""
        if not self._event or self._all:
            super().credit(to_cycle)
            return
        if self._n_held:
            for r in self._order:
                if r._held:
                    r.credit(to_cycle)
        for r in self._next:
            r.credit(to_cycle)

    def _mark(self, mark: tuple, at: int) -> None:
        """Mark a router port for the eval at cycle *at* and list it."""
        r, is_input, bit = mark
        if is_input:
            r._mi |= bit
        else:
            r._mo |= bit
        if r._at != at:
            r._at = at
            self._next.append(r)
            if r._held:
                r._held = False
                self._n_held -= 1

    def member_input(self, member, wire: Wire) -> None:
        """A network interface's drive on a router's boundary wire
        committed: a rising tx or ack marks the router's local port."""
        if wire.value:
            self._mark(self._marks[wire], self._kernel.cycle + 1)
            if not self._awake:
                self._kernel.wake_unit(self)

    def reset(self) -> None:
        super().reset()
        self._restart()

    def restore_state(self, state: dict) -> None:
        # the routers restored every port marked and no control credit
        # pending, so the fabric evaluates all of them at once
        self._restart()
        self.wake()

    def _restart(self) -> None:
        for w in self._driven:
            w._queued = False
        self._driven.clear()
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

    def local_channels(self, address: Address) -> Tuple[HandshakeTx, HandshakeTx]:
        """(into-router, out-of-router) channels of a node's local port."""
        return self.local_ports[address]

    @property
    def idle(self) -> bool:
        """True when no router holds flits or open connections.

        Under the fabric this looks only at the routers listed for the
        next cycle and the count of those asleep holding flits.
        """
        if self._event and not self._all:
            return not self._n_held and not any(r.busy for r in self._next)
        return not any(r.busy for r in self._order)

    def addresses(self):
        """All attachment-node addresses in (y, x) raster order."""
        return list(self.topology.nodes())

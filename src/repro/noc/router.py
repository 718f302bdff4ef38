"""Cycle-accurate model of the Hermes wormhole router (paper Figure 2).

The router has up to five bi-directional ports (East, West, North, South,
Local), an input buffer per port (2-flit circular FIFO by default), and a
single centralised control logic implementing round-robin arbitration and
deterministic XY routing.  Flits move between routers with the
asynchronous handshake protocol (tx/data/ack), which takes two clock
cycles per flit in steady state — the factor two of the paper's latency
formula.

Timing model
------------
* A header flit reaching the head of an idle input buffer raises a
  routing request.
* The control logic serves one request at a time; each service occupies
  the control logic for ``routing_cycles`` cycles (the paper's ``Ri``,
  "at least 7 clock cycles").  If the XY-selected output is busy the
  request simply persists and is re-arbitrated later, exactly like a
  blocked wormhole.
* Once a connection input->output is established, flits stream through at
  one flit per two cycles until the payload count (snooped from the size
  flit) is exhausted, then the connection closes.

Ports move flits through link records (:class:`~repro.noc.mesh.Link`),
not wires: a sender presents a flit, the receiver takes it from the next
cycle on if its FIFO has room, and the sender pops it the cycle after
the take and presents its next flit, two cycles per flit.  An eval
examines only the *marked* ports, in port order: the outputs (senders),
then the control logic, then the inputs (receivers).  A port is marked

* by the fabric, for the next eval: an input when a flit is presented
  to it and its FIFO has room, an output when its flit is taken;
* by a pop, for the same eval: its input (a waiting flit enters);
* by an opened connection, or a push behind an owned output that
  presents nothing, for the next eval: that output.

A push into an unconnected input sets its bit in the request mask the
arbiter grants from.  A flit facing a full FIFO waits, a stall *span*
from the cycle it became visible; the take that ends it, or
:meth:`~repro.sim.kernel.Simulator.settle`, credits its cycles to
``stall_cycles``.  A router whose fabric runs in strict lock-step
examines every attached port on every eval.  On the ledger's
``noc_uniform_8x8`` run (seed 1) an eval starts with 0.9 marked outputs
and 0.8 marked inputs on average, where walking every attached port
examined 9.2.

Sleeping
--------
The fabric (:class:`~repro.noc.mesh.Mesh`) evaluates a router only at a
cycle where a port is marked or the control logic must act, and the
router's eval says which: ``None`` while a port is marked for the next
eval, else the cycle the control logic is next due at, or ``SLEEP``
until a mark.  While the inputs are frozen the control logic is
predictable: a grant, then
``routing_cycles - 1`` countdown cycles, then a decision, and a blocked
decision repeats this every ``routing_cycles + 1`` cycles with the next
request in round-robin order.  So the due cycle is the first decision
that can connect (or raise :class:`RoutingError`), and for a router
with a telemetry sink the first decision of any kind, which records a
``route`` or ``route_blocked`` instant.  The fabric books that cycle.

The next eval replays the skipped control cycles: the countdown, the
grants and the blocked decisions (arbiter priority, control state and
``blocked_routings``).  :meth:`HermesRouter.credit`, which
:meth:`~repro.sim.kernel.Simulator.settle` (and so
:meth:`~repro.sim.kernel.Simulator.snapshot`) reaches, replays them too
and credits the stall spans, so a sleeping router lags only between
settlements.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim import SLEEP, Component
from .arbiter import RoundRobinArbiter, grant_table, port_sets
from .fifo import CircularFifo
from .routing import Port
from .topology import port_label


class RoutingError(Exception):
    """A packet asked for an output port that does not exist."""


# Input-side packet phases (what the *next popped flit* is).
_PH_HEADER = 0
_PH_SIZE = 1
_PH_PAYLOAD = 2

_CTRL_IDLE = 0
_CTRL_ROUTING = 1

#: the snapshot lists that hold one entry per port
_PER_PORT = (
    "fifos", "in_conn", "in_phase", "in_remaining", "out_owner",
    "in_flight", "rx_phase", "rx_left", "conn_opened",
)


class HermesRouter(Component):
    """One Hermes router.

    Channels are attached by the mesh builder with :meth:`attach_input`
    and :meth:`attach_output`; ports without a neighbour stay detached
    (border routers really do instantiate fewer ports in Hermes).  The
    *topology* plugin supplies the port count, the header codec and the
    routing function.
    """

    def __init__(
        self,
        name: str,
        address: Tuple[int, int],
        buffer_depth: int = 2,
        routing_cycles: int = 7,
        stats=None,
        *,
        topology,
    ):
        super().__init__(name)
        if routing_cycles < 1:
            raise ValueError("routing_cycles must be at least 1")
        self.address = address
        self.topology = topology
        self.N_PORTS = n = topology.router_ports
        self._decode = topology.decode
        self._route = topology.route
        self._port_names = [port_label(p) for p in range(n)]
        self.buffer_depth = buffer_depth
        self.routing_cycles = routing_cycles
        self.stats = stats
        #: optional TelemetrySink; every hook is behind one None-check
        self.sink = None
        self._now = 0
        self._conn_opened = [0] * n
        # Receive-side packet framing (telemetry only): lets the receiver
        # hook recognise header flits and stamp their FIFO-entry cycle.
        self._rx_phase = [_PH_HEADER] * n
        self._rx_left = [0] * n

        #: the link of each port (see Mesh), through which it moves flits
        self.in_ch: list = [None] * n
        self.out_ch: list = [None] * n
        #: the fabric's list of links presented or taken this cycle
        self._sent: list = []
        #: stats key of each port
        self._keys = [(address, p) for p in range(n)]
        #: the ports of a mask, ascending, and the round-robin grant
        #: among a request mask (tables shared by port count)
        self._ports = port_sets(n)
        self._grants = grant_table(n)
        #: attached inputs and outputs, as port masks
        self._in_mask = 0
        self._out_mask = 0
        #: ports marked for the next eval
        self._mi = 0
        self._mo = 0
        #: unconnected inputs with a flit at their head, and the output
        #: each one's head routes to (None: not routed yet)
        self._req = 0
        self._dest: List[Optional[int]] = [None] * n
        #: open connections
        self._conns = 0
        #: a request mask whose every head routes to a busy output (only
        #: a closing connection frees one)
        self._stuck = 0
        #: cycle each input's open stall span started (None: no stall)
        self._stall_since: List[Optional[int]] = [None] * n
        #: first cycle whose control step is not yet done or credited
        #: (None: none pending, e.g. right after a restore)
        self._ctrl_at: Optional[int] = None
        # fabric bookkeeping (see Mesh): position in the router order,
        # the cycle the router is listed for, the booked control wake,
        # and the routers holding flits, which this one joins and leaves
        self._fi = 0
        self._at = -1
        self._due: Optional[int] = None
        self._holding: dict = {}

        self.fifos = [CircularFifo(buffer_depth) for _ in range(n)]
        # Input-side connection state.
        self.in_conn: List[Optional[int]] = [None] * n
        self.in_phase = [_PH_HEADER] * n
        self.in_remaining = [0] * n
        # Output-side connection state.
        self.out_owner: List[Optional[int]] = [None] * n

        self.arbiter = RoundRobinArbiter(n)
        self._ctrl_state = _CTRL_IDLE
        self._ctrl_input = 0
        self._ctrl_counter = 0

    # -- wiring ------------------------------------------------------------

    def attach_input(self, port: Port, link) -> None:
        """Take flits from *link* at *port* (we own its ack)."""
        port = int(port)  # a plain int: it is part of the stats keys
        self.in_ch[port] = link
        link.fifo = self.fifos[port]
        self._in_mask |= 1 << port
        self.adopt_wires([link.ack])

    def attach_output(self, port: Port, link) -> None:
        """Present flits on *link* at *port* (we own its tx/data)."""
        port = int(port)
        self.out_ch[port] = link
        self._out_mask |= 1 << port
        self.adopt_wires([link.tx, link.data])

    # -- simulation ----------------------------------------------------------

    def eval(self, cycle: int) -> Optional[float]:
        """One cycle: credit the cycles skipped since the last eval,
        then examine the marked outputs, step the control logic, and
        examine the marked inputs, and return when the router is next
        due (see the module docstring)."""
        at = self._ctrl_at
        if at is not None and cycle > at and (self._req or self._ctrl_state):
            self._replay_control(cycle - at)
        self._ctrl_at = cycle + 1
        stats = self.stats
        if self.sink is not None:
            self._now = cycle
        ports = self._ports
        fifos = self.fifos
        out_links = self.out_ch
        sent = self._sent
        mo, mi = self._mo, self._mi
        self._mo = self._mi = 0

        # Senders.  An owned output presents its owner's FIFO head until
        # the receiver takes it; a take at an earlier cycle pops it.
        if mo:
            out_owner = self.out_owner
            for out in ports[mo]:
                owner = out_owner[out]
                if owner is None:
                    continue
                fifo = fifos[owner]
                link = out_links[out]
                if link.valid:
                    if not link.taken or link.at == cycle:
                        continue
                    flit = fifo.pop()
                    mi |= 1 << owner
                    if stats is not None:
                        stats.flits_sent[self._keys[out]] += 1
                    self._advance_packet(owner, out, flit)
                    link.taken = 0
                    if out_owner[out] == owner and fifo._count:
                        link.flit = fifo.head
                    else:
                        link.valid = 0
                elif fifo._count:
                    link.valid = 1
                    link.flit = fifo.head
                else:
                    continue
                link.at = cycle
                sent.append(link)

        # Control: grant a request, count a routing service down, or
        # decide.
        if self._ctrl_state:
            if self._ctrl_counter:
                self._ctrl_counter -= 1
            else:
                self._decide()
        elif self._req:
            arbiter = self.arbiter
            granted = self._grants[arbiter._last_grant][self._req]
            arbiter._last_grant = granted
            self._ctrl_input = granted
            self._ctrl_state = _CTRL_ROUTING
            self._ctrl_counter = self.routing_cycles - 1

        # Receivers.  An input takes a flit presented at an earlier
        # cycle and not taken yet, if its FIFO has room.
        if mi:
            in_links = self.in_ch
            stalls = self._stall_since
            for p in ports[mi]:
                link = in_links[p]
                if not link.valid or link.taken or link.at == cycle:
                    continue
                fifo = fifos[p]
                if fifo._count == fifo.capacity:
                    if stalls[p] is None:
                        stalls[p] = link.at + 1  # since it is visible
                    continue
                # the flit waited since it became visible or was credited
                since = stalls[p]
                if since is None:
                    since = link.at + 1
                else:
                    stalls[p] = None
                if cycle > since and stats is not None:
                    stats.stall_cycles[self._keys[p]] += cycle - since
                flit = link.flit
                fifo.push(flit)
                link.taken = 1
                link.at = cycle
                sent.append(link)
                if stats is not None:
                    stats.flits_received[self._keys[p]] += 1
                if self.sink is not None:
                    self._rx_track(p, flit)
                out = self.in_conn[p]
                if out is None:
                    if not self._req >> p & 1:
                        if not self._req and not self._conns:
                            self._holding[self] = None
                        self._req |= 1 << p
                        self._dest[p] = None  # a new head to route
                elif not out_links[out].valid:
                    self._mo |= 1 << out

        # When due (see the module docstring): the decision cycle of the
        # first request, in round-robin order, whose output is free or
        # missing; every decision before it is blocked, and credit
        # replays it.  SLEEP: only a mark can make the control logic do
        # more than count.
        if self._mo:
            return None
        if not self._req or self._req == self._stuck and self.sink is None:
            return SLEEP
        period = self.routing_cycles + 1
        traced = self.sink is not None
        if self._ctrl_state != _CTRL_IDLE:
            decision = cycle + 1 + self._ctrl_counter
            if traced or self._free(self._ctrl_input):
                return decision
            base = decision
        else:
            base = cycle
        if traced:
            return base + period
        requesters = self._ports[self._req]
        for k in range(1, len(requesters) + 1):
            if self._free(self.arbiter.turn(requesters, k)):
                return base + k * period
        self._stuck = self._req
        return SLEEP

    def _free(self, port: int) -> bool:
        """The output the head flit of *port* routes to is free or
        missing: its decision would not be blocked."""
        out = self._dest[port]
        if out is None:
            target = self._decode(self.fifos[port].head)
            out = self._dest[port] = self._route(self.address, target)
        return self.out_ch[out] is None or self.out_owner[out] is None

    def credit(self, to_cycle: int) -> None:
        """Credit the control steps skipped before *to_cycle*, and the
        open stall spans up to it; the spans stay open from *to_cycle*
        on.  Crediting in pieces equals crediting at once."""
        at = self._ctrl_at
        if at is not None and to_cycle > at:
            self._ctrl_at = to_cycle
            self._replay_control(to_cycle - at)
        stalls = self._stall_since
        for p in self._ports[self._mi]:
            # marked while its FIFO was full: the flit waits from the
            # cycle it became visible (see Mesh._mark)
            link = self.in_ch[p]
            if (
                stalls[p] is None and link.at + 1 < to_cycle
                and link.valid and not link.taken and link.fifo.is_full
            ):
                stalls[p] = link.at + 1
        if stalls.count(None) != self.N_PORTS:
            stats = self.stats
            for p, since in enumerate(stalls):
                if since is not None and to_cycle > since:
                    stalls[p] = to_cycle
                    if stats is not None:
                        stats.stall_cycles[self._keys[p]] += to_cycle - since

    def _replay_control(self, n: int) -> None:
        """Replay *n* skipped control steps.

        Every skipped decision was blocked (the eval's due names the
        first that is not), so the control replays as a cycle of
        ``routing_cycles + 1`` steps: a grant to the next request in
        round-robin order, ``routing_cycles - 1`` countdown steps and a
        blocked decision, starting from whatever state the last eval or
        credit left.  The router's own eval replays the control alone,
        leaving the stall spans to the push that ends them.
        """
        blocked = 0
        if self._ctrl_state != _CTRL_IDLE:
            if n <= self._ctrl_counter:
                self._ctrl_counter -= n
                return
            n -= self._ctrl_counter + 1
            self._ctrl_counter = 0
            self._ctrl_state = _CTRL_IDLE
            blocked = 1
        if n and self._req:
            rounds, rest = divmod(n, self.routing_cycles + 1)
            blocked += rounds
            self._ctrl_input = self.arbiter.grant_among(
                self._ports[self._req], rounds + (rest > 0)
            )
            if rest:
                self._ctrl_state = _CTRL_ROUTING
                self._ctrl_counter = self.routing_cycles - rest
        if blocked and self.stats is not None:
            self.stats.routing_blocked(self.address, blocked)

    def _rescan(self) -> None:
        """Rebuild the derived port state after a reset or restore: the
        request mask, the open connections, every port marked, no open
        span and no pending control credit."""
        self._req = 0
        self._dest = [None] * self.N_PORTS
        for p, fifo in enumerate(self.fifos):
            if fifo._count and self.in_conn[p] is None:
                self._req |= 1 << p
        self._conns = sum(c is not None for c in self.in_conn)
        self._stuck = 0
        if self.busy:
            self._holding[self] = None
        else:
            self._holding.pop(self, None)
        self._mi = self._in_mask
        self._mo = self._out_mask
        self._stall_since = [None] * self.N_PORTS
        self._ctrl_at = None
        self._due = None

    def reset(self) -> None:
        super().reset()
        n = self.N_PORTS
        for fifo in self.fifos:
            fifo.clear()
        self.in_conn = [None] * n
        self.in_phase = [_PH_HEADER] * n
        self.in_remaining = [0] * n
        self.out_owner = [None] * n
        self.arbiter.reset()
        self._ctrl_state = _CTRL_IDLE
        self._ctrl_input = 0
        self._ctrl_counter = 0
        self._rx_phase = [_PH_HEADER] * n
        self._rx_left = [0] * n
        self._conn_opened = [0] * n
        self._now = 0
        self._rescan()

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "fifos": [
                [f.snapshot(), f.watermark] for f in self.fifos
            ],
            "in_conn": list(self.in_conn),
            "in_phase": list(self.in_phase),
            "in_remaining": list(self.in_remaining),
            "out_owner": list(self.out_owner),
            "in_flight": [
                link is not None and bool(link.valid) for link in self.out_ch
            ],
            "last_grant": self.arbiter._last_grant,
            "ctrl_state": self._ctrl_state,
            "ctrl_input": self._ctrl_input,
            "ctrl_counter": self._ctrl_counter,
            "rx_phase": list(self._rx_phase),
            "rx_left": list(self._rx_left),
            "conn_opened": list(self._conn_opened),
            "now": self._now,
            "stalled": [
                p for p, since in enumerate(self._stall_since)
                if since is not None
            ],
        }

    def restore_state(self, state: dict) -> None:
        n = self.N_PORTS
        for key in _PER_PORT:
            if len(state[key]) != n:
                raise ValueError(f"{key} has {len(state[key])} entries, not {n}")
        for key in ("in_conn", "out_owner"):
            for port in state[key]:
                if port is not None and not (isinstance(port, int) and 0 <= port < n):
                    raise ValueError(f"{key} holds {port!r}, not a port")
        for key, hi in (
            ("last_grant", n - 1),
            ("ctrl_state", _CTRL_ROUTING),
            ("ctrl_input", n - 1),
            ("ctrl_counter", self.routing_cycles),
        ):
            value = state[key]
            if not (isinstance(value, int) and 0 <= value <= hi):
                raise ValueError(f"{key} holds {value!r}, not 0..{hi}")
        for fifo, (contents, watermark) in zip(self.fifos, state["fifos"]):
            fifo.restore(contents, watermark)
        self.in_conn = list(state["in_conn"])
        self.in_phase = list(state["in_phase"])
        self.in_remaining = list(state["in_remaining"])
        self.out_owner = list(state["out_owner"])
        self.arbiter._last_grant = state["last_grant"]
        self._ctrl_state = state["ctrl_state"]
        self._ctrl_input = state["ctrl_input"]
        self._ctrl_counter = state["ctrl_counter"]
        self._rx_phase = list(state["rx_phase"])
        self._rx_left = list(state["rx_left"])
        self._conn_opened = list(state["conn_opened"])
        self._now = state["now"]
        # A snapshot settled its stall spans, so the first eval, which
        # examines every port, reopens each at the restored cycle.
        self._rescan()

    # -- packet framing and routing decisions -------------------------------

    def _advance_packet(self, in_port: int, out_port: int, flit: int) -> None:
        """Track packet framing as a flit leaves, closing on the last one."""
        phase = self.in_phase[in_port]
        if phase == _PH_HEADER:
            self.in_phase[in_port] = _PH_SIZE
        elif phase == _PH_SIZE:
            if flit == 0:
                self._close_connection(in_port, out_port)
            else:
                self.in_remaining[in_port] = flit
                self.in_phase[in_port] = _PH_PAYLOAD
        else:
            self.in_remaining[in_port] -= 1
            if self.in_remaining[in_port] == 0:
                self._close_connection(in_port, out_port)

    def _close_connection(self, in_port: int, out_port: int) -> None:
        self.in_conn[in_port] = None
        self.in_phase[in_port] = _PH_HEADER
        self.in_remaining[in_port] = 0
        self.out_owner[out_port] = None
        self._conns -= 1
        self._stuck = 0
        if self.fifos[in_port]._count:
            self._req |= 1 << in_port  # the next packet's header
            self._dest[in_port] = None
        elif not self._req and not self._conns:
            del self._holding[self]
        if self.stats is not None:
            self.stats.connection_closed(self.address)
        if self.sink is not None:
            opened = self._conn_opened[out_port]
            self.sink.complete(
                self.name,
                f"hop>{self._port_names[out_port]}",
                opened,
                self._now - opened,
                in_port=self._port_names[in_port],
            )

    def _decide(self) -> None:
        """The routing decision for the granted input: connect it to its
        XY output, or count a blocked routing."""
        self._ctrl_state = _CTRL_IDLE
        in_port = self._ctrl_input
        fifo = self.fifos[in_port]
        # The request may have vanished (it cannot in normal operation,
        # but a reset mid-route keeps this safe).
        if self.in_conn[in_port] is not None or not fifo._count:
            return
        target = self._decode(fifo.head)
        out_port = self._route(self.address, target)
        if self.out_ch[out_port] is None:
            raise RoutingError(
                f"router {self.address}: packet for {target} needs "
                f"missing port {self._port_names[out_port]}"
            )
        if self.out_owner[out_port] is None:
            self.in_conn[in_port] = out_port
            self.out_owner[out_port] = in_port
            self._req &= ~(1 << in_port)
            self._conns += 1
            self._mo |= 1 << out_port  # present the first flit next eval
            if self.stats is not None:
                self.stats.connection_opened(self.address)
            if self.sink is not None:
                self._conn_opened[out_port] = self._now
                self.sink.instant(
                    self.name,
                    "route",
                    self._now,
                    target=f"{target[0]},{target[1]}",
                    out=self._port_names[out_port],
                    port=self._port_names[in_port],
                )
            return
        if self.stats is not None:
            self.stats.routing_blocked(self.address)
        if self.sink is not None:
            self.sink.instant(
                self.name,
                "route_blocked",
                self._now,
                out=self._port_names[out_port],
                port=self._port_names[in_port],
                target=f"{target[0]},{target[1]}",
            )

    def _rx_track(self, port: int, flit: int) -> None:
        """Telemetry-only receive-side framing: stamp the FIFO-entry cycle
        of every header flit (the ``hdr`` instant the post-mortem analyzer
        uses as each hop's queueing-start boundary)."""
        phase = self._rx_phase[port]
        if phase == _PH_HEADER:
            target = self._decode(flit)
            self.sink.instant(
                self.name,
                "hdr",
                self._now,
                port=self._port_names[port],
                target=f"{target[0]},{target[1]}",
            )
            self._rx_phase[port] = _PH_SIZE
        elif phase == _PH_SIZE:
            if flit == 0:
                self._rx_phase[port] = _PH_HEADER
            else:
                self._rx_left[port] = flit
                self._rx_phase[port] = _PH_PAYLOAD
        else:
            self._rx_left[port] -= 1
            if self._rx_left[port] == 0:
                self._rx_phase[port] = _PH_HEADER

    # -- introspection ---------------------------------------------------------

    def pending_header_target(self, port: int) -> Optional[Tuple[int, int]]:
        """Target of an unrouted header waiting at *port*'s FIFO head.

        Returns ``None`` unless the port holds a header flit that has not
        yet won a connection — the state a health monitor needs to build
        the "waiting for output" edges of the wait-for graph.
        """
        if self.in_conn[port] is not None or self.fifos[port].is_empty:
            return None
        if self.in_phase[port] != _PH_HEADER:
            return None
        return self._decode(self.fifos[port].head)

    def probe_state(self) -> dict:
        """Cheap introspection snapshot for health monitoring/diagnostics."""
        return {
            "address": self.address,
            "occupancy": [len(f) for f in self.fifos],
            "watermark": [f.watermark for f in self.fifos],
            "fifos": [f.snapshot() for f in self.fifos],
            "in_conn": list(self.in_conn),
            "out_owner": list(self.out_owner),
            "ctrl": "routing" if self._ctrl_state != _CTRL_IDLE else "idle",
        }

    @property
    def busy(self) -> bool:
        """True while any buffer holds flits or any connection is open.

        O(1): a buffered flit is either a request or behind an open
        connection, and a routing service serves a request.
        """
        return bool(self._req or self._conns)

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

Each cycle is one eval that walks the attached outputs (senders), the
control logic, and the attached inputs (receivers) once each, and does
work only where a port's state changes (see the comments in the sender
and receiver loops), so a saturated fabric spends host time on flits
that move.  The receivers' walk also reaches the sleep verdict.

Sleeping
--------
A router sleeps whenever its next eval would only count: every input
is silent or stalled behind a full FIFO, every owned output waits for
an ack or for its FIFO to fill, and the control logic is idle with no
request, counting down a routing service (it books a kernel wake for
the decision cycle), or has just made a blocked decision.  A committed
change on an input's tx/data or an output's ack wakes it.

A blocked decision repeats while the inputs are frozen: every
``routing_cycles + 1`` cycles the control grants the next request in
round-robin order, counts down and finds its output busy again.  So a
router without a telemetry sink sleeps through these re-arbitrations
and books a wake for the decision cycle of the first request whose
output is free (none if all are busy).  With a sink it stays awake
for each decision, which records a ``route_blocked`` instant.

:meth:`HermesRouter.on_wake` credits what the skipped evals would have
counted: one stall cycle per skipped cycle for each input stalled at
sleep, the routing countdown, and the replayed grants and blocked
decisions (arbiter priority, control state and ``blocked_routings``).
:meth:`~repro.sim.kernel.Simulator.settle` (which
:meth:`~repro.sim.kernel.Simulator.snapshot` calls) settles that credit
at any cycle, so a sleeping router's counters and control state lag
only between settlements.  On the ledger's ``noc_hotspot_8x8`` run
this leaves 59,935 router evals, where sleeping only at stalls and
countdowns left 124,438.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional, Tuple

from ..sim import Component, HandshakeTx
from .arbiter import RoundRobinArbiter
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
        self.N_PORTS = topology.router_ports
        self._decode = topology.decode
        self._route = topology.route
        self._port_names = [port_label(p) for p in range(self.N_PORTS)]
        self.buffer_depth = buffer_depth
        self.routing_cycles = routing_cycles
        self.stats = stats
        #: optional TelemetrySink; every hook is behind one None-check
        self.sink = None
        self._now = 0
        self._conn_opened = [0] * self.N_PORTS
        # Receive-side packet framing (telemetry only): lets the receiver
        # hook recognise header flits and stamp their FIFO-entry cycle.
        self._rx_phase = [_PH_HEADER] * self.N_PORTS
        self._rx_left = [0] * self.N_PORTS

        self.in_ch: List[Optional[HandshakeTx]] = [None] * self.N_PORTS
        self.out_ch: List[Optional[HandshakeTx]] = [None] * self.N_PORTS
        #: attached ports in port order: (port, channel, stats key) plus,
        #: for inputs, the port's FIFO
        self._in_ports: list = []
        self._out_ports: list = []
        #: stats keys of the inputs stalled when the router fell asleep
        self._stalled: list = []
        #: the router fell asleep idle (no flits, no connection)
        self._slept_idle = False
        #: the last eval's sleep verdict, and whether it was a blocked
        #: decision the router may sleep through (see is_quiescent)
        self._quiet = False
        self._planned = False

        self.fifos = [CircularFifo(buffer_depth) for _ in range(self.N_PORTS)]
        # Input-side connection state.
        self.in_conn: List[Optional[int]] = [None] * self.N_PORTS
        self.in_phase = [_PH_HEADER] * self.N_PORTS
        self.in_remaining = [0] * self.N_PORTS
        # Output-side connection state.
        self.out_owner: List[Optional[int]] = [None] * self.N_PORTS
        self._in_flight = [False] * self.N_PORTS

        self.arbiter = RoundRobinArbiter(self.N_PORTS)
        self._ctrl_state = _CTRL_IDLE
        self._ctrl_input = 0
        self._ctrl_counter = 0

    # -- wiring ------------------------------------------------------------

    def attach_input(self, port: Port, channel: HandshakeTx) -> None:
        """Attach the receive side of *channel* to *port* (we drive ack)."""
        port = int(port)  # a plain int: it is part of the stats keys
        self.in_ch[port] = channel
        insort(
            self._in_ports,
            (port, channel, self.fifos[port], (self.address, port)),
        )
        self.adopt_wires([channel.ack])
        # a committed change on the neighbour's tx/data must wake us
        self.watch_wires([channel.tx, channel.data])

    def attach_output(self, port: Port, channel: HandshakeTx) -> None:
        """Attach the send side of *channel* to *port* (we drive tx/data)."""
        port = int(port)
        self.out_ch[port] = channel
        insort(self._out_ports, (port, channel, (self.address, port)))
        self.adopt_wires([channel.tx, channel.data])
        # a router asleep with a flit in flight wakes on the ack
        self.watch_wires([channel.ack])

    # -- simulation ----------------------------------------------------------

    def eval(self, cycle: int) -> None:
        """One cycle: senders, then control, then receivers, in one walk
        each.  The receivers' walk also reaches the sleep verdict that
        :meth:`is_quiescent` returns, reading our acks and FIFO counts
        after this eval's drives and pushes."""
        stats = self.stats
        if self.sink is not None:
            self._now = cycle
        fifos = self.fifos
        in_conn = self.in_conn
        out_owner = self.out_owner
        in_flight = self._in_flight

        # Senders.  An output with no owner, or owned but not in flight,
        # already holds tx low: whatever ended its last flit drove tx=0.
        # An in-flight output waiting for ack already presents tx=1 and
        # its FIFO head, which only this sender pops.  Neither needs a
        # drive.
        for out, ch, key in self._out_ports:
            owner = out_owner[out]
            if owner is None:
                continue
            fifo = fifos[owner]
            if in_flight[out]:
                if not ch.ack.value:
                    continue
                flit = fifo.pop()
                if stats is not None:
                    stats.flits_sent[key] += 1
                self._advance_packet(owner, out, flit)
                if out_owner[out] == owner and fifo:
                    ch.data.drive(fifo.head)
                else:
                    ch.tx.drive(0)
                    in_flight[out] = False
            elif fifo:
                ch.tx.drive(1)
                ch.data.drive(fifo.head)
                in_flight[out] = True

        # Control: grant a request, count a routing service down, or
        # decide.  A request is an unconnected input with a flit at its
        # head; with none, arbitration grants nothing and changes nothing.
        planned = False
        if self._ctrl_state == _CTRL_IDLE:
            requesters = self._requesters()
            if requesters:
                self._ctrl_input = self.arbiter.grant_among(requesters)
                self._ctrl_state = _CTRL_ROUTING
                self._ctrl_counter = self.routing_cycles - 1
        elif self._ctrl_counter:
            self._ctrl_counter -= 1
        else:
            # a blocked decision repeats while the inputs stay frozen, so
            # the router may sleep through its re-arbitrations (unless a
            # sink wants an instant for each)
            planned = self._decide() and self.sink is None
        routing = self._ctrl_state != _CTRL_IDLE
        # the next eval grants a pending request: stay awake for it
        grant_next = not routing and not planned

        # Receivers.  Only this router drives an input's ack, so outside
        # its single-cycle pulse ack is already low and needs no drive.
        # The verdict: our ack pulse raised or dropped now (the sender
        # answers it at this commit), a flit the next eval accepts, or a
        # request it grants keeps us awake; a full FIFO stalls.
        quiet = not (routing and not self._ctrl_counter)
        idle = not routing
        stalled = []
        for p, ch, fifo, key in self._in_ports:
            ack = ch.ack
            if ack.value:
                ack.drive(0)
                quiet = False
            elif ch.tx.value:
                if fifo._count == fifo.capacity:
                    if stats is not None:
                        stats.stall_cycles[key] += 1
                    if quiet:
                        if grant_next and in_conn[p] is None:
                            quiet = False
                        else:
                            idle = False
                            stalled.append(key)
                    continue
                flit = ch.data.value
                fifo.push(flit)
                ack.drive(1)
                quiet = False
                if stats is not None:
                    stats.flits_received[key] += 1
                if self.sink is not None:
                    self._rx_track(p, flit)
            elif quiet:
                if fifo._count:
                    if grant_next and in_conn[p] is None:
                        quiet = False
                    idle = False
                elif ch.tx._next:
                    quiet = False  # a flit the next eval accepts
                elif in_conn[p] is not None:
                    idle = False
        if quiet and not idle:
            # An owned output waits for an ack or for its FIFO to fill.
            # A neighbour's ack whose _next differs from its value
            # changes at this commit and would wake us at once.
            for out, ch, _ in self._out_ports:
                owner = out_owner[out]
                if owner is not None:
                    if in_flight[out]:
                        if ch.ack.value or ch.ack._next:
                            quiet = False  # a pop, or a wake now
                            break
                    elif fifos[owner]._count:
                        quiet = False  # a first flit to present
                        break
        self._quiet = quiet
        self._planned = planned
        self._stalled = stalled
        self._slept_idle = quiet and idle

    def is_quiescent(self) -> bool:
        """The verdict of this cycle's eval: True when the next eval
        would only count stalls, the routing countdown or blocked
        re-arbitrations (see the module docstring).

        A router counting down books a kernel wake for its decision
        cycle.  One that slept at a blocked decision books the decision
        cycle of the first request whose output is free (or missing, so
        that :class:`RoutingError` raises in step with lock-step), and
        no wake when every request is blocked: only a wire change can
        free an output then.
        """
        if not self._quiet:
            return False
        cycle = self._kernel.cycle
        if self._ctrl_state != _CTRL_IDLE:
            self.wake_at(cycle + 1 + self._ctrl_counter)
        elif self._planned:
            requesters = self._requesters()
            period = self.routing_cycles + 1
            for k in range(1, len(requesters) + 1):
                head = self.fifos[self.arbiter.turn(requesters, k)].head
                out = self._route(self.address, self._decode(head))
                if self.out_ch[out] is None or self.out_owner[out] is None:
                    self.wake_at(cycle + k * period)
                    break
        return True

    def on_wake(self, skipped_cycles: int) -> None:
        """Credit the skipped evals: one stall cycle each for the inputs
        stalled at sleep, and the control logic's countdown and blocked
        re-arbitrations.

        Every skipped decision was blocked (the wake was booked for the
        first that is not), so the control replays as a cycle of
        ``routing_cycles + 1`` evals: a grant to the next request in
        round-robin order, ``routing_cycles - 1`` countdown evals and a
        blocked decision.  The replay starts from whatever state the
        last eval or credit left, so crediting a span in pieces equals
        crediting it at once.
        """
        if self._stalled and self.stats is not None:
            stall_cycles = self.stats.stall_cycles
            for key in self._stalled:
                stall_cycles[key] += skipped_cycles
        if self._slept_idle:
            return
        n = skipped_cycles
        blocked = 0
        if self._ctrl_state != _CTRL_IDLE:
            if n <= self._ctrl_counter:
                self._ctrl_counter -= n
                return
            n -= self._ctrl_counter + 1
            self._ctrl_counter = 0
            self._ctrl_state = _CTRL_IDLE
            blocked = 1
        if n:
            requesters = self._requesters()
            if requesters:
                rounds, rest = divmod(n, self.routing_cycles + 1)
                blocked += rounds
                self._ctrl_input = self.arbiter.grant_among(
                    requesters, rounds + (rest > 0)
                )
                if rest:
                    self._ctrl_state = _CTRL_ROUTING
                    self._ctrl_counter = self.routing_cycles - rest
        if blocked and self.stats is not None:
            self.stats.routing_blocked(self.address, blocked)

    def _requesters(self) -> List[int]:
        """Unconnected inputs with a flit at their head, ascending."""
        in_conn = self.in_conn
        return [
            p for p, _, fifo, _ in self._in_ports
            if fifo._count and in_conn[p] is None
        ]

    def reset(self) -> None:
        super().reset()
        for fifo in self.fifos:
            fifo.clear()
        self.in_conn = [None] * self.N_PORTS
        self.in_phase = [_PH_HEADER] * self.N_PORTS
        self.in_remaining = [0] * self.N_PORTS
        self.out_owner = [None] * self.N_PORTS
        self._in_flight = [False] * self.N_PORTS
        self.arbiter.reset()
        self._ctrl_state = _CTRL_IDLE
        self._ctrl_input = 0
        self._ctrl_counter = 0
        self._rx_phase = [_PH_HEADER] * self.N_PORTS
        self._rx_left = [0] * self.N_PORTS
        self._conn_opened = [0] * self.N_PORTS
        self._now = 0
        self._stalled = []
        self._slept_idle = False
        self._quiet = False
        self._planned = False

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
            "in_flight": list(self._in_flight),
            "last_grant": self.arbiter._last_grant,
            "ctrl_state": self._ctrl_state,
            "ctrl_input": self._ctrl_input,
            "ctrl_counter": self._ctrl_counter,
            "rx_phase": list(self._rx_phase),
            "rx_left": list(self._rx_left),
            "conn_opened": list(self._conn_opened),
            "now": self._now,
            "stalled": [port for (_, port) in self._stalled],
        }

    def restore_state(self, state: dict) -> None:
        for fifo, (contents, watermark) in zip(self.fifos, state["fifos"]):
            fifo.restore(contents, watermark)
        self.in_conn = list(state["in_conn"])
        self.in_phase = list(state["in_phase"])
        self.in_remaining = list(state["in_remaining"])
        self.out_owner = list(state["out_owner"])
        self._in_flight = list(state["in_flight"])
        self.arbiter._last_grant = state["last_grant"]
        self._ctrl_state = state["ctrl_state"]
        self._ctrl_input = state["ctrl_input"]
        self._ctrl_counter = state["ctrl_counter"]
        self._rx_phase = list(state["rx_phase"])
        self._rx_left = list(state["rx_left"])
        self._conn_opened = list(state["conn_opened"])
        self._now = state["now"]
        self._stalled = [
            (self.address, port) for port in state.get("stalled", [])
        ]
        self._slept_idle = False
        self._quiet = False
        self._planned = False

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
        self._in_flight[out_port] = False
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

    def _decide(self) -> bool:
        """The routing decision for the granted input: connect it to its
        XY output, or count a blocked routing.  True when blocked."""
        self._ctrl_state = _CTRL_IDLE
        in_port = self._ctrl_input
        fifo = self.fifos[in_port]
        # The request may have vanished (it cannot in normal operation,
        # but a reset mid-route keeps this safe).
        if self.in_conn[in_port] is not None or not fifo._count:
            return False
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
            return False
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
        return True

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

        A router that fell asleep idle (empty buffers, no open
        connection, idle control) as its own kernel unit answers at
        once: nothing changes while it sleeps.  One asleep while blocked
        still holds flits, so it takes the full check.
        """
        if self._slept_idle and not self._awake and self._sched is self:
            return False
        return (
            any(not f.is_empty for f in self.fifos)
            or any(c is not None for c in self.in_conn)
            or self._ctrl_state != _CTRL_IDLE
        )

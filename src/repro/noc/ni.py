"""Network interface: packet-level adapter over the flit handshake.

Every IP core in MultiNoC talks to its router's Local port through the
same tx/data/ack handshake the routers use among themselves, over the
same kind of link record (:class:`~repro.noc.mesh.Link`).  The
:class:`NetworkInterface` provides the packet-level view — queue a
:class:`~repro.noc.packet.Packet` for injection, collect fully reassembled
packets on reception — while still exercising the exact flit-level timing
(two cycles per flit, blocking on a busy network).

It steps its links by the routers' rule: a step at cycle c (a flit
presented, taken or popped) is seen from c+1, and
:meth:`~repro.noc.mesh.Link.step` has the fabric mark the router.  The
fabric marks the interface when the router steps (:meth:`mark`):
``due``, the first cycle the interface's next eval has work at, drops
to the next cycle, and its kernel unit wakes then.  An eval leaves
``due`` at the next cycle while it still has work, else at ``SLEEP``:
no packet to start, a presented flit waiting for the router's take,
and nothing from the router to answer.  A Processor or Serial IP
evaluates its interface only when it is due or has a packet queued.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..sim import SLEEP, Component
from .flit import decode_address
from .mesh import Link
from .packet import Packet

_RX_HEADER = 0
_RX_SIZE = 1
_RX_PAYLOAD = 2


class NetworkInterface(Component):
    """Packet send/receive endpoint attached to a router Local port."""

    def __init__(self, name: str, address: Tuple[int, int], stats=None):
        super().__init__(name)
        self.address = address
        self.stats = stats
        #: optional TelemetrySink; hooks are behind one None-check each
        self.sink = None
        #: per-flow (target) injection sequence numbers; telemetry only
        self._flow_seq: dict = {}
        self.to_router: Optional[Link] = None
        self.from_router: Optional[Link] = None
        #: first cycle the next eval has work at (see the module docstring)
        self.due = 0

        self._tx_queue: Deque[Packet] = deque()
        self._tx_flits: List[int] = []
        self._tx_index = 0
        self._tx_packet: Optional[Packet] = None
        self._tx_in_flight = False

        self._rx_state = _RX_HEADER
        self._rx_flits: List[int] = []
        self._rx_expected = 0
        self.received: Deque[Packet] = deque()
        #: optional debugger hook ``on_packet(ni, packet, cycle)`` called
        #: when a packet finishes reassembly at this NI.
        self.on_packet = None
        #: optional HermesNetwork or MultiNoC counting its busy NIs (see
        #: tx_busy)
        self.network = None

    # -- wiring ------------------------------------------------------------

    def attach(self, to_router: Link, from_router: Link) -> None:
        """Connect both links of a node's Local port."""
        self.to_router = to_router
        self.from_router = from_router
        to_router.ni = from_router.ni = self
        # the views of its end of the channel, so a checkpoint keeps them
        self.adopt_wires([to_router.tx, to_router.data, from_router.ack])
        self.due = 0
        self.wake()

    def detach(self) -> None:
        """Disconnect from the Local port (dynamic reconfiguration).

        This NI's end of the vacated links is parked at its reset values
        so the router sees a silent neighbour.
        """
        if self.to_router is not None:
            wires = [self.to_router.tx, self.to_router.data, self.from_router.ack]
            for w in wires:
                w.reset()
            self.disown_wires(wires)
            self.to_router.ni = self.from_router.ni = None
        self.to_router = None
        self.from_router = None
        # tx was parked low, so a flit in flight is presented afresh on
        # the next channel this NI attaches to
        self._tx_in_flight = False
        # any partially received packet is lost with the region
        self._rx_state = _RX_HEADER
        self._rx_flits = []

    def mark(self, cycle: int) -> None:
        """The fabric stepped one of this NI's links: it has work from
        *cycle* (the next one) on, when its kernel unit wakes."""
        if self.due > cycle:
            self.due = cycle
        unit = self._sched
        if unit is not None and not unit._awake:
            unit._kernel.wake_next(unit)

    # -- packet API -----------------------------------------------------------

    def send_packet(self, packet: Packet) -> Packet:
        """Queue *packet* for injection; returns it for stamp inspection."""
        if packet.source is None:
            packet.source = self.address
        if (
            self.network is not None
            and self._tx_packet is None
            and not self._tx_queue
        ):
            self.network.busy_nis += 1
        self._tx_queue.append(packet)
        self.wake()
        return packet

    @property
    def tx_busy(self) -> bool:
        """True while any packet is queued or partially injected."""
        return bool(self._tx_queue) or self._tx_packet is not None

    def probe_state(self) -> dict:
        """Cheap introspection snapshot for health monitoring/diagnostics."""
        return {
            "address": self.address,
            "tx_queued": len(self._tx_queue),
            "tx_busy": self.tx_busy,
            "rx_partial_flits": len(self._rx_flits),
            "rx_pending": len(self.received),
        }

    def has_received(self) -> bool:
        return bool(self.received)

    def pop_received(self) -> Packet:
        return self.received.popleft()

    # -- simulation -------------------------------------------------------------

    def eval(self, cycle: int) -> Optional[float]:
        """Send and receive; then sleep when the next eval would do
        nothing: no packet waits to start (a packet being injected has
        its flit presented), and neither link holds a step the router
        made this cycle (a take to pop, a flit to take).  Delivered
        packets sitting in ``received`` do not keep the NI itself awake:
        the parent that drains them tracks that itself."""
        self._eval_sender(cycle)
        self._eval_receiver(cycle)
        to, fr = self.to_router, self.from_router
        if (
            not self._tx_in_flight
            and (self._tx_queue or self._tx_packet is not None)
            or to is not None and to.taken
            or fr is not None and fr.valid and not fr.taken
        ):
            self.due = cycle + 1
            return None
        self.due = SLEEP
        return SLEEP

    def reset(self) -> None:
        super().reset()
        self._tx_queue.clear()
        self._tx_flits = []
        self._tx_index = 0
        self._tx_packet = None
        self._tx_in_flight = False
        self._rx_state = _RX_HEADER
        self._rx_flits = []
        self.received.clear()
        self._flow_seq = {}
        self.due = 0

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "tx_queue": [p.to_state() for p in self._tx_queue],
            "tx_flits": list(self._tx_flits),
            "tx_index": self._tx_index,
            "tx_packet": (
                self._tx_packet.to_state()
                if self._tx_packet is not None
                else None
            ),
            "tx_in_flight": self._tx_in_flight,
            "rx_state": self._rx_state,
            "rx_flits": list(self._rx_flits),
            "rx_expected": self._rx_expected,
            "received": [p.to_state() for p in self.received],
            "flow_seq": sorted(
                [list(target), seq]
                for target, seq in self._flow_seq.items()
            ),
        }

    def restore_state(self, state: dict) -> None:
        self._tx_queue = deque(
            Packet.from_state(p) for p in state["tx_queue"]
        )
        self._tx_flits = list(state["tx_flits"])
        self._tx_index = state["tx_index"]
        tx_packet = state["tx_packet"]
        self._tx_packet = (
            Packet.from_state(tx_packet) if tx_packet is not None else None
        )
        self._tx_in_flight = state["tx_in_flight"]
        rx_state, rx_flits = state["rx_state"], list(state["rx_flits"])
        # a packet being received holds no flit before its header (state
        # 0), its header alone before the size (1), then both and more
        if rx_state == _RX_PAYLOAD:
            framed = len(rx_flits) >= 2
        else:
            framed = rx_state in (_RX_HEADER, _RX_SIZE) and len(rx_flits) == rx_state
        if not framed:
            raise ValueError(f"rx_state {rx_state!r} with {len(rx_flits)} flits")
        self._rx_state = rx_state
        self._rx_flits = rx_flits
        self._rx_expected = state["rx_expected"]
        self.received = deque(
            Packet.from_state(p) for p in state["received"]
        )
        self._flow_seq = {
            tuple(target): seq for target, seq in state["flow_seq"]
        }
        self.due = 0

    def _eval_sender(self, cycle: int) -> None:
        link = self.to_router
        if link is None:
            return
        if self._tx_packet is None and self._tx_queue:
            self._tx_packet = self._tx_queue.popleft()
            self._tx_packet.created_cycle = (
                self._tx_packet.created_cycle
                if self._tx_packet.created_cycle is not None
                else cycle
            )
            self._tx_flits = self._tx_packet.to_flits()
            self._tx_index = 0
            self._tx_in_flight = False
        if self._tx_packet is None:
            # Idle: nothing presented.  The last flit of every packet
            # (or detach/reset) withdrew it.
            return
        if self._tx_in_flight:
            if not link.taken or link.at == cycle:
                # Waiting for the router's take of the presented flit.
                return
            if self._tx_index == 0:
                self._tx_packet.injected_cycle = cycle
            self._tx_index += 1
            link.taken = 0
            if self._tx_index >= len(self._tx_flits):
                if self.stats is not None:
                    self.stats.packet_injected(self._tx_packet)
                if self.sink is not None:
                    start = self._tx_packet.injected_cycle
                    target = self._tx_packet.target
                    seq = self._flow_seq.get(target, 0)
                    self._flow_seq[target] = seq + 1
                    src = f"{self.address[0]},{self.address[1]}"
                    tgt = f"{target[0]},{target[1]}"
                    self.sink.complete(
                        self.name,
                        "inject",
                        start if start is not None else cycle,
                        cycle - start if start is not None else 0,
                        target=tgt,
                        flits=len(self._tx_flits),
                        src=src,
                        flow=f"{src}>{tgt}",
                        seq=seq,
                        queued=self._tx_packet.created_cycle,
                    )
                self._tx_packet = None
                self._tx_in_flight = False
                link.valid = 0  # withdrawn: nothing for the router
                link.at = cycle
                if self.network is not None and not self._tx_queue:
                    self.network.busy_nis -= 1
                return
            # still presented: the next flit
            link.flit = self._tx_flits[self._tx_index]
        else:
            link.valid = 1
            link.flit = self._tx_flits[self._tx_index]
            self._tx_in_flight = True
        link.step(cycle)

    def _eval_receiver(self, cycle: int) -> None:
        link = self.from_router
        if link is None or not link.valid or link.taken or link.at == cycle:
            return
        self._accept_flit(link.flit, cycle)
        link.taken = 1
        link.step(cycle)

    def _accept_flit(self, flit: int, cycle: int) -> None:
        if self._rx_state == _RX_HEADER:
            self._rx_flits = [flit]
            self._rx_state = _RX_SIZE
        elif self._rx_state == _RX_SIZE:
            self._rx_flits.append(flit)
            self._rx_expected = flit
            if flit == 0:
                self._finish_packet(cycle)
            else:
                self._rx_state = _RX_PAYLOAD
        else:
            self._rx_flits.append(flit)
            self._rx_expected -= 1
            if self._rx_expected == 0:
                self._finish_packet(cycle)

    def _finish_packet(self, cycle: int) -> None:
        packet = Packet.from_flits(self._rx_flits)
        packet.delivered_cycle = cycle
        header_target = decode_address(self._rx_flits[0])
        if header_target != self.address:
            raise RuntimeError(
                f"NI at {self.address} received packet addressed to "
                f"{header_target}: routing is broken"
            )
        self.received.append(packet)
        if self.on_packet is not None:
            self.on_packet(self, packet, cycle)
        if self.stats is not None:
            self.stats.packet_delivered(packet, self.address)
        if self.sink is not None:
            # stats matching (above) recovered the injection stamp, so
            # the whole inject->deliver lifetime renders as one span
            at = f"{self.address[0]},{self.address[1]}"
            if packet.latency is not None:
                self.sink.complete(
                    self.name,
                    "packet",
                    packet.injected_cycle,
                    packet.latency,
                    flits=packet.size_flits,
                    at=at,
                )
            else:
                self.sink.instant(self.name, "deliver", cycle, at=at)
        self._rx_state = _RX_HEADER
        self._rx_flits = []

"""A traditional shared-bus interconnect: the paper's implicit baseline.

Section 1 motivates the NoC with "(ii) scalability of bandwidth, when
compared to traditional bus architectures".  This module provides that
baseline so the claim can be measured: a single shared medium with
round-robin arbitration, one transaction at a time, one flit per cycle
while granted.

The packet-level interface mirrors :class:`~repro.noc.network.
HermesNetwork` (same ``interfaces`` / ``send`` / ``drained`` /
``collect_received`` surface), so identical workloads drive both
fabrics.  A bus moves ``flit_bits`` per cycle *in total* no matter how
many IPs are attached; the mesh's links each move ``flit_bits/2`` per
cycle but in parallel — which is the whole argument.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..sim import Component, Simulator
from .arbiter import RoundRobinArbiter
from .packet import Packet
from .stats import NetworkStats

Address = Tuple[int, int]

_IDLE = 0
_ARBITRATING = 1
_TRANSFER = 2


class BusInterface:
    """One IP's connection to the shared bus (NI-compatible subset)."""

    def __init__(self, address: Address):
        self.address = address
        self.tx_queue: Deque[Packet] = deque()
        self.received: Deque[Packet] = deque()

    def send_packet(self, packet: Packet) -> Packet:
        if packet.source is None:
            packet.source = self.address
        self.tx_queue.append(packet)
        return packet

    @property
    def tx_busy(self) -> bool:
        return bool(self.tx_queue)

    def has_received(self) -> bool:
        return bool(self.received)

    def pop_received(self) -> Packet:
        return self.received.popleft()


class SharedBusNetwork(Component):
    """``width x height`` IPs on one bus (grid addressing for parity
    with the mesh; the geometry is otherwise irrelevant to a bus).

    Parameters
    ----------
    arbitration_cycles:
        Cycles from request to grant (bus masters negotiate every
        transaction; 2 models a registered arbiter).
    """

    def __init__(
        self,
        width: int,
        height: int,
        arbitration_cycles: int = 2,
        stats: Optional[NetworkStats] = None,
    ):
        super().__init__(f"bus{width}x{height}")
        self.width = width
        self.height = height
        self.arbitration_cycles = arbitration_cycles
        self.stats = stats if stats is not None else NetworkStats()
        self.nodes: List[Address] = [
            (x, y) for y in range(height) for x in range(width)
        ]
        self.interfaces: Dict[Address, BusInterface] = {
            addr: BusInterface(addr) for addr in self.nodes
        }
        self.arbiter = RoundRobinArbiter(len(self.nodes))
        self._state = _IDLE
        self._countdown = 0
        self._current: Optional[Packet] = None
        self._remaining = 0
        self.total_transfers = 0

    # -- HermesNetwork-compatible surface ---------------------------------

    def send(self, source: Address, target: Address, payload: List[int]) -> Packet:
        packet = Packet(target=target, payload=payload, source=source)
        return self.interfaces[source].send_packet(packet)

    @property
    def drained(self) -> bool:
        return (
            self._state == _IDLE
            and all(not ni.tx_busy for ni in self.interfaces.values())
        )

    def collect_received(self) -> List[Packet]:
        out: List[Packet] = []
        for ni in self.interfaces.values():
            while ni.has_received():
                out.append(ni.pop_received())
        return out

    def make_simulator(self, clock_hz: float = 50_000_000.0) -> Simulator:
        sim = Simulator(clock_hz=clock_hz)
        sim.add(self)
        return sim

    def run_to_drain(self, sim: Simulator, max_cycles: int = 1_000_000) -> int:
        return sim.run_until(
            lambda: self.drained, max_cycles=max_cycles, label="bus drain"
        )

    # -- simulation -----------------------------------------------------------

    def eval(self, cycle: int) -> None:
        super().eval(cycle)  # traffic sources may be children
        if self._state == _IDLE:
            requests = [
                bool(self.interfaces[addr].tx_queue) for addr in self.nodes
            ]
            grant = self.arbiter.grant(requests)
            if grant is not None:
                ni = self.interfaces[self.nodes[grant]]
                self._current = ni.tx_queue.popleft()
                self._current.injected_cycle = cycle
                self.stats.packet_injected(self._current)
                self._remaining = self._current.size_flits
                self._countdown = self.arbitration_cycles
                self._state = _ARBITRATING
        elif self._state == _ARBITRATING:
            self._countdown -= 1
            if self._countdown <= 0:
                self._state = _TRANSFER
        elif self._state == _TRANSFER:
            self._remaining -= 1  # one flit crosses the bus per cycle
            if self._remaining <= 0:
                packet = self._current
                assert packet is not None
                packet.delivered_cycle = cycle
                self.interfaces[packet.target].received.append(packet)
                self.stats.packet_delivered(packet, packet.target)
                self.total_transfers += 1
                self._current = None
                self._state = _IDLE

    def reset(self) -> None:
        super().reset()
        for ni in self.interfaces.values():
            ni.tx_queue.clear()
            ni.received.clear()
        self.arbiter.reset()
        self._state = _IDLE
        self._current = None
        self.total_transfers = 0
        self.stats.restore(NetworkStats().snapshot())

"""High-level facade over the Hermes mesh for NoC-only experiments.

:class:`HermesNetwork` bundles a mesh, one network interface per router
and a shared statistics object into a single component, with convenience
helpers for the benchmark harnesses ("send these packets, run until
drained, give me latencies").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..sim import Component, Simulator
from .mesh import Mesh
from .ni import NetworkInterface
from .packet import Packet
from .stats import NetworkStats
from .topology import parse_topology

Address = Tuple[int, int]


class HermesNetwork(Component):
    """Mesh + per-router network interfaces + statistics."""

    def __init__(
        self,
        width: Optional[int] = None,
        height: Optional[int] = None,
        buffer_depth: int = 2,
        routing_cycles: int = 7,
        stats: Optional[NetworkStats] = None,
        telemetry=None,
        topology=None,
    ):
        if topology is None:
            name = f"hermes{width}x{height}"
        else:
            topology = parse_topology(topology)
            name = f"hermes.{topology.name}"
        super().__init__(name)
        if stats is None:
            registry = telemetry.metrics if telemetry is not None else None
            stats = NetworkStats(registry=registry)
        self.stats = stats
        self.mesh = Mesh(
            width,
            height,
            buffer_depth=buffer_depth,
            routing_cycles=routing_cycles,
            stats=self.stats,
            topology=topology,
        )
        self.add_child(self.mesh)
        self.interfaces: Dict[Address, NetworkInterface] = {}
        for addr in self.mesh.addresses():
            ni = NetworkInterface(
                f"ni{self.mesh.topology.label(addr)}", addr, stats=self.stats
            )
            into, out = self.mesh.local_channels(addr)
            ni.attach(to_router=into, from_router=out)
            self.interfaces[addr] = ni
            self.add_child(ni)
        self.telemetry = telemetry
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    # -- telemetry ---------------------------------------------------------

    def attach_telemetry(self, sink) -> None:
        """Enable event hooks on every router and network interface."""
        self.telemetry = sink
        self.mesh.attach_telemetry(sink)
        for ni in self.interfaces.values():
            sink.track(ni.name, process="noc")
            ni.sink = sink

    # -- checkpointing -----------------------------------------------------

    def reset(self) -> None:
        super().reset()
        # in place: routers and NIs hold the stats' counter dicts
        self.stats.restore(NetworkStats().snapshot())

    def snapshot_state(self) -> dict:
        # the shared NetworkStats, as in MultiNoC: routers and NIs only
        # hold references to it
        return {"stats": self.stats.snapshot()}

    def restore_state(self, state: dict) -> None:
        self.stats.restore(state["stats"])

    # -- convenience -------------------------------------------------------

    def send(self, source: Address, target: Address, payload: List[int]) -> Packet:
        """Queue a packet at *source*'s network interface."""
        packet = Packet(target=target, payload=payload, source=source)
        return self.interfaces[source].send_packet(packet)

    @property
    def drained(self) -> bool:
        """True when every NI queue is empty and the mesh is idle."""
        return (
            all(not ni.tx_busy for ni in self.interfaces.values())
            and self.mesh.idle
        )

    def collect_received(self) -> List[Packet]:
        """Drain and return all packets delivered so far, any interface."""
        out: List[Packet] = []
        for ni in self.interfaces.values():
            while ni.has_received():
                out.append(ni.pop_received())
        return out

    def make_simulator(
        self, clock_hz: float = 50_000_000.0, strict_lockstep: bool = False
    ) -> Simulator:
        """A simulator containing just this network (50 MHz: the paper's
        figure for the 1 Gbit/s router peak throughput)."""
        sim = Simulator(clock_hz=clock_hz, strict_lockstep=strict_lockstep)
        sim.add(self)
        return sim

    def run_to_drain(
        self, sim: Simulator, max_cycles: int = 1_000_000
    ) -> int:
        """Step *sim* until the network has no in-flight traffic."""
        return sim.run_until(
            lambda: self.drained, max_cycles=max_cycles, label="network drain"
        )

"""Structural tests for the mesh builder and its links."""

import pytest

from repro.noc import HermesNetwork, Mesh, NetworkInterface, Packet, Port
from repro.sim import Simulator, VcdWriter
from repro.sim.wire import FieldWire

from .test_topology import _mesh_wires


class TestMeshStructure:
    def test_neighbours_share_one_channel_per_direction(self):
        mesh = Mesh(2, 2)
        west = mesh.router((0, 0))
        east = mesh.router((1, 0))
        # the EAST output channel of (0,0) is the WEST input of (1,0)
        assert west.out_ch[Port.EAST] is east.in_ch[Port.WEST]
        assert east.out_ch[Port.WEST] is west.in_ch[Port.EAST]

    def test_vertical_wiring(self):
        mesh = Mesh(1, 3)
        low = mesh.router((0, 0))
        mid = mesh.router((0, 1))
        assert low.out_ch[Port.NORTH] is mid.in_ch[Port.SOUTH]
        assert mid.out_ch[Port.SOUTH] is low.in_ch[Port.NORTH]

    def test_border_ports_unattached(self):
        mesh = Mesh(2, 2)
        corner = mesh.router((0, 0))
        assert corner.in_ch[Port.WEST] is None
        assert corner.out_ch[Port.SOUTH] is None
        assert corner.in_ch[Port.LOCAL] is not None

    def test_every_router_has_local_channels(self):
        mesh = Mesh(3, 2)
        for addr in mesh.addresses():
            into, out = mesh.local_channels(addr)
            router = mesh.router(addr)
            assert router.in_ch[Port.LOCAL] is into
            assert router.out_ch[Port.LOCAL] is out

    def test_addresses_raster_order(self):
        assert Mesh(2, 2).addresses() == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_each_wire_committed_exactly_once(self):
        """No wire may be adopted by two components (a checkpoint would
        save and restore it twice)."""
        net = HermesNetwork(3, 3)
        seen = {}
        for component in net.iter_components():
            for wire in component._wires:
                assert wire.name not in seen, (
                    f"wire {wire.name} owned by both "
                    f"{seen[wire.name]} and {component.name}"
                )
                seen[wire.name] = component.name

    @pytest.mark.parametrize("strict", [False, True])
    def test_every_fabric_wire_is_a_view_the_kernel_never_latches(self, strict):
        """Every link's tx/data/ack, a Local port's included, shows a
        field of the link record, which no one drives or reads as a
        wire, in either mode."""
        net = HermesNetwork(topology="mesh:3x3")
        sim = net.make_simulator(strict_lockstep=strict)
        net.send((0, 0), (2, 2), [1, 2, 3])
        net.run_to_drain(sim)
        wires = _mesh_wires(net.mesh)
        # 12 router-to-router channels and 9 Local ports, both ways
        assert len(wires) == 3 * 2 * (12 + 9)
        for w in wires:
            assert type(w) is FieldWire, w.name
            assert w.value == getattr(w._record, w._field), w.name

    @pytest.mark.parametrize("strict", [False, True])
    def test_interfaces_may_come_before_the_fabric(self, strict):
        """A network interface evaluated before the fabric in a cycle
        steps its links with the same timing as one evaluated after it:
        the same waveform on every fabric wire, the same deliveries."""

        def run(nis_first):
            mesh = Mesh(3, 2)
            nis = []
            for addr in mesh.addresses():
                ni = NetworkInterface(f"ni{addr}", addr)
                ni.attach(*mesh.local_channels(addr))
                nis.append(ni)
            sim = Simulator(strict_lockstep=strict)
            for unit in nis + [mesh] if nis_first else [mesh] + nis:
                sim.add(unit)
            vcd = VcdWriter(_mesh_wires(mesh))
            sim.add_watcher(vcd.sample)
            for i, ni in enumerate(nis):
                for j in range(3):
                    target = mesh.addresses()[(i + j + 1) % len(nis)]
                    ni.send_packet(Packet(target=target, payload=[i, j] * (j + 1)))
            sim.run_until(
                lambda: mesh.idle and not any(ni.tx_busy for ni in nis),
                max_cycles=10_000,
            )
            delivered = [
                (p.source, p.delivered_cycle, tuple(p.payload))
                for ni in nis
                for p in ni.received
            ]
            assert len(delivered) == 3 * len(nis)
            return sim.cycle, delivered, vcd.dump()

        assert run(nis_first=True) == run(nis_first=False)

    def test_router_count(self):
        assert len(Mesh(4, 3).routers) == 12

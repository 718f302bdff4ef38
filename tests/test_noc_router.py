"""Tests for the Hermes router micro-architecture.

A single router is exercised through raw handshake channels so the
cycle-level behaviour (2 cycles/flit, routing occupancy, wormhole
blocking) is visible.
"""

import pytest

from repro.noc import (
    HermesNetwork,
    HermesRouter,
    MeshTopology,
    Packet,
    Port,
    RoutingError,
)
from repro.noc.flit import encode_address
from repro.sim import Component, HandshakeTx, Simulator
from repro.telemetry import TelemetrySink


class ChannelDriver(Component):
    """Testbench flit source speaking the handshake protocol."""

    def __init__(self, name, channel):
        super().__init__(name)
        self.ch = channel
        self.adopt_wires([channel.tx, channel.data])
        self.queue = []
        self.in_flight = False
        self.sent = 0

    def eval(self, cycle):
        if self.in_flight:
            if self.ch.ack.value:
                self.queue.pop(0)
                self.sent += 1
                self.in_flight = False
            else:
                self.ch.tx.drive(1)
                self.ch.data.drive(self.queue[0])
                return
        if self.queue:
            self.ch.tx.drive(1)
            self.ch.data.drive(self.queue[0])
            self.in_flight = True
        else:
            self.ch.tx.drive(0)


class ChannelSink(Component):
    """Testbench flit sink; can be throttled to model backpressure."""

    def __init__(self, name, channel, stall_until=0):
        super().__init__(name)
        self.ch = channel
        self.adopt_wires([channel.ack])
        self.received = []
        self.receive_cycles = []
        self.stall_until = stall_until

    def eval(self, cycle):
        if self.ch.ack.value:
            self.ch.ack.drive(0)
            return
        if self.ch.tx.value and cycle >= self.stall_until:
            self.received.append(self.ch.data.value)
            self.receive_cycles.append(cycle)
            self.ch.ack.drive(1)
        else:
            self.ch.ack.drive(0)


def single_router(routing_cycles=7, buffer_depth=2, stall_until=0):
    """A lone router with driven WEST input and sunk LOCAL output."""
    router = HermesRouter(
        "r", (0, 0), buffer_depth, routing_cycles, topology=MeshTopology(1, 1)
    )
    west_in = HandshakeTx("west_in")
    local_out = HandshakeTx("local_out")
    router.attach_input(Port.WEST, west_in)
    router.attach_output(Port.LOCAL, local_out)
    driver = ChannelDriver("drv", west_in)
    sink = ChannelSink("sink", local_out, stall_until=stall_until)
    sim = Simulator()
    top = Component("top")
    top.add_child(driver)
    top.add_child(router)
    top.add_child(sink)
    sim.add(top)
    return sim, router, driver, sink


class TestHandshake:
    def test_packet_delivered_through_local_port(self):
        sim, router, driver, sink = single_router()
        packet = Packet(target=(0, 0), payload=[5, 6, 7])
        driver.queue = packet.to_flits()
        sim.run_until(lambda: len(sink.received) == 5, max_cycles=200)
        assert sink.received == [0x00, 3, 5, 6, 7]

    def test_steady_state_two_cycles_per_flit(self):
        sim, router, driver, sink = single_router()
        driver.queue = Packet(target=(0, 0), payload=[1] * 20).to_flits()
        sim.run_until(lambda: len(sink.received) == 22, max_cycles=500)
        deltas = [
            b - a for a, b in zip(sink.receive_cycles, sink.receive_cycles[1:])
        ]
        # once the wormhole is streaming, every flit takes exactly 2 cycles
        assert set(deltas[2:]) == {2}

    def test_routing_occupies_control_for_routing_cycles(self):
        """Header-to-first-delivery time grows linearly with routing_cycles."""
        times = {}
        for rc in (1, 5, 9):
            sim, router, driver, sink = single_router(routing_cycles=rc)
            driver.queue = Packet(target=(0, 0), payload=[1]).to_flits()
            sim.run_until(lambda: sink.received, max_cycles=200)
            times[rc] = sink.receive_cycles[0]
        assert times[5] - times[1] == 4
        assert times[9] - times[5] == 4

    def test_backpressure_blocks_sender_without_loss(self):
        sim, router, driver, sink = single_router(stall_until=100)
        driver.queue = Packet(target=(0, 0), payload=[9] * 10).to_flits()
        sim.run_until(lambda: len(sink.received) == 12, max_cycles=500)
        assert sink.received == [0, 10] + [9] * 10

    def test_buffer_capacity_bounds_accepted_flits_while_blocked(self):
        """With the output blocked, only buffer_depth flits enter."""
        for depth in (2, 4, 8):
            sim, router, driver, sink = single_router(
                buffer_depth=depth, stall_until=10_000
            )
            driver.queue = Packet(target=(0, 0), payload=[1] * 30).to_flits()
            sim.step(300)
            assert driver.sent == depth

    def test_consecutive_packets_reuse_connection_machinery(self):
        sim, router, driver, sink = single_router()
        p1 = Packet(target=(0, 0), payload=[1, 2]).to_flits()
        p2 = Packet(target=(0, 0), payload=[3]).to_flits()
        driver.queue = p1 + p2
        sim.run_until(lambda: len(sink.received) == 7, max_cycles=500)
        assert sink.received == [0, 2, 1, 2, 0, 1, 3]

    def test_zero_payload_packet_closes_connection(self):
        sim, router, driver, sink = single_router()
        driver.queue = [0x00, 0, 0x00, 1, 7]  # empty packet then 1-flit packet
        sim.run_until(lambda: len(sink.received) == 5, max_cycles=500)
        assert sink.received == [0, 0, 0, 1, 7]

    def test_missing_output_port_raises(self):
        sim, router, driver, sink = single_router()
        # target (1, 0) needs the EAST port, which is not attached
        driver.queue = [encode_address(1, 0), 1, 5]
        with pytest.raises(RoutingError):
            sim.step(100)

    def test_router_busy_reflects_in_flight_state(self):
        sim, router, driver, sink = single_router()
        assert not router.busy
        driver.queue = Packet(target=(0, 0), payload=[1]).to_flits()
        sim.step(5)
        assert router.busy
        sim.run_until(lambda: len(sink.received) == 3, max_cycles=200)
        sim.step(5)
        assert not router.busy

    def test_reset_clears_connections_and_buffers(self):
        sim, router, driver, sink = single_router()
        driver.queue = Packet(target=(0, 0), payload=[1] * 5).to_flits()
        sim.step(20)
        sim.reset()
        assert not router.busy
        assert all(f.is_empty for f in router.fifos)


class TestConcurrentConnections:
    def test_five_simultaneous_connections_possible(self):
        """A center router can hold five connections at once (Section 2.1)."""
        net = HermesNetwork(3, 3, routing_cycles=1)
        sim = net.make_simulator()
        # five flows crossing the center router (1,1) to five distinct outputs
        flows = [
            ((0, 1), (2, 1)),  # west->east
            ((2, 1), (0, 1)),  # east->west
            ((1, 0), (1, 2)),  # south->north
            ((1, 2), (1, 0)),  # north->south
            ((1, 1), (1, 1)),  # local->local
        ]
        for src, dst in flows:
            net.send(src, dst, [0xAA] * 40)
        center = net.mesh.router((1, 1))
        max_conns = 0
        for _ in range(400):
            sim.step()
            conns = sum(1 for c in center.in_conn if c is not None)
            max_conns = max(max_conns, conns)
        assert max_conns == 5

    def test_output_contention_serialises_packets(self):
        """Two packets to the same output: one blocks until the other ends."""
        net = HermesNetwork(3, 1, routing_cycles=2)
        sim = net.make_simulator()
        net.send((0, 0), (2, 0), [1] * 30)
        net.send((1, 0), (2, 0), [2] * 30)
        net.run_to_drain(sim, max_cycles=2000)
        received = net.collect_received()
        assert len(received) == 2
        payloads = sorted(p.payload[0] for p in received)
        assert payloads == [1, 2]
        assert net.stats.blocked_routings  # someone had to wait


class TestReset:
    @pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "sink"])
    def test_reset_snapshot_equals_fresh_snapshot(self, telemetry):
        """After traffic, reset leaves no state a fresh build lacks
        (control input, connection-open stamps, the sink's clock, the
        network statistics)."""

        def build():
            sink = TelemetrySink() if telemetry else None
            net = HermesNetwork(3, 3, telemetry=sink)
            return net, net.make_simulator()

        net, sim = build()
        addresses = net.mesh.addresses()
        for i, src in enumerate(addresses):
            net.send(src, addresses[-1 - i], [i] * 6)
        net.run_to_drain(sim, max_cycles=5000)
        assert len(net.collect_received()) == len(addresses)
        sim.reset()
        _, fresh = build()

        assert sim.snapshot()["components"] == fresh.snapshot()["components"]

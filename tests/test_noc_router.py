"""Tests for the Hermes router micro-architecture.

A single router is exercised through raw handshake links so the
cycle-level behaviour (2 cycles/flit, routing occupancy, wormhole
blocking) is visible.  Whole fabrics under synthetic traffic are pinned
to digests of their per-key statistics (and traced event lists).
"""

import hashlib
import json
import random

import pytest

from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.core import MultiNoCPlatform, Program
from repro.experiments import edge_detection
from repro.noc import (
    HermesNetwork,
    Mesh,
    MeshTopology,
    Packet,
    Port,
    RoutingError,
)
from repro.noc.flit import encode_address
from repro.sim import Component, Simulator, VcdWriter
from repro.telemetry import TelemetrySink

from .test_topology import _mesh_wires


class ChannelDriver(Component):
    """Testbench flit source at a Local port: it presents each flit and
    pops it once it sees the router's take, as a network interface
    does, and is evaluated every cycle."""

    def __init__(self, name, link):
        super().__init__(name)
        self.link = link
        link.ni = self
        self.adopt_wires([link.tx, link.data])
        self.queue = []
        self.sent = 0

    def mark(self, cycle):
        pass  # awake every cycle

    def eval(self, cycle):
        link = self.link
        if link.valid:
            if not link.taken or link.at == cycle:
                return
            self.queue.pop(0)
            self.sent += 1
            link.taken = 0
            if not self.queue:
                link.valid = 0
                return
        elif not self.queue:
            return
        link.valid = 1
        link.flit = self.queue[0]
        link.step(cycle)


class ChannelSink(Component):
    """Testbench flit sink at a Local port; can be throttled to model
    backpressure."""

    def __init__(self, name, link, stall_until=0):
        super().__init__(name)
        self.link = link
        link.ni = self
        self.adopt_wires([link.ack])
        self.received = []
        self.receive_cycles = []
        self.stall_until = stall_until

    def mark(self, cycle):
        pass  # awake every cycle

    def eval(self, cycle):
        link = self.link
        if (
            link.valid and not link.taken and link.at < cycle
            and cycle >= self.stall_until
        ):
            self.received.append(link.flit)
            self.receive_cycles.append(cycle)
            link.taken = 1
            link.step(cycle)


class _WestFed(MeshTopology):
    """One router whose WEST port, like its LOCAL port, faces a node."""

    def __init__(self):
        super().__init__(1, 1)

    def nodes(self):
        return [(0, 0), (1, 0)]

    def node_router(self, node):
        return (0, 0)

    def local_port(self, node):
        return Port.LOCAL if node == (0, 0) else Port.WEST


def single_router(routing_cycles=7, buffer_depth=2, stall_until=0):
    """A lone router with driven WEST input and sunk LOCAL output: a
    one-router fabric whose two ports face testbench units, as network
    interfaces do (the driver is evaluated before the fabric)."""
    mesh = Mesh(
        buffer_depth=buffer_depth,
        routing_cycles=routing_cycles,
        topology=_WestFed(),
    )
    router = mesh.router((0, 0))
    west_in = mesh.local_channels((1, 0))[0]
    local_out = mesh.local_channels((0, 0))[1]
    driver = ChannelDriver("drv", west_in)
    sink = ChannelSink("sink", local_out, stall_until=stall_until)
    sim = Simulator()
    top = Component("top")
    top.add_child(driver)
    top.add_child(mesh)
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


# ---------------------------------------------------------------------------
# Pinned fabric runs
# ---------------------------------------------------------------------------

#: (topology, hotspot traffic, traced, buffer depth, routing cycles,
#: payload flits) -> (drain cycle, digest).  The digests hash the drain
#: cycle, every per-key ``NetworkStats.snapshot()`` entry and, for traced
#: runs, the telemetry event list.  They were captured with the router
#: that walked every port on every eval, so a change to the event-driven
#: router that both kernel modes share still shows here.
FABRIC_PINS = {
    ("mesh:4x4", False, False, 2, 7, 8): (1427, "12b20f40f4b57c36"),
    ("mesh:4x4", True, True, 4, 7, 8): (4255, "599db539b130c548"),
    ("mesh:4x4", True, False, 2, 1, 0): (832, "de10523ffc47443e"),
    ("mesh:4x4", False, True, 4, 1, 4): (454, "ea76ffcd0a66655f"),
    ("mesh:5x3", False, True, 2, 7, 8): (1587, "421dcf04fd6a6893"),
    ("mesh:5x3", True, False, 4, 7, 8): (3452, "6e7ad56373e82f36"),
    ("mesh:5x3", True, True, 2, 7, 0): (1457, "37f81113b383520a"),
    ("mesh:5x3", False, False, 4, 1, 8): (743, "a9ea0a7b8e2771db"),
    ("torus:4x4", False, False, 4, 7, 8): (935, "a781beec9841712b"),
    ("torus:4x4", True, True, 2, 7, 8): (4282, "3b03ab4c45e9632b"),
    ("torus:4x4", True, False, 4, 1, 4): (2131, "217a9b016e3fd849"),
    ("torus:4x4", False, True, 2, 7, 0): (496, "053a3dde12db69a7"),
    ("cmesh:3x3x2", False, True, 4, 7, 8): (2267, "bb7db1e6d9cfba0d"),
    ("cmesh:3x3x2", True, False, 2, 7, 8): (4855, "b64ea3f5e6c8a0d7"),
    ("cmesh:3x3x2", True, True, 4, 1, 8): (3613, "c6411c26a01ae0a0"),
    ("cmesh:3x3x2", False, False, 2, 7, 4): (2145, "67c1119d891cc524"),
}


def _fabric(topology, hotspot, traced, depth, routing, payload):
    """A pinned fabric run, reset and not yet stepped."""
    sink = TelemetrySink() if traced else None
    net = HermesNetwork(
        topology=topology,
        buffer_depth=depth,
        routing_cycles=routing,
        telemetry=sink,
    )
    config = TrafficConfig(
        rate=0.08 if hotspot else 0.1,
        duration=120,
        payload_flits=payload,
        seed=len(topology) + 3 * depth + routing,
        hotspot_node=(0, 0) if hotspot else None,
    )
    sources = drive_traffic(net, config)
    sim = net.make_simulator()
    sim.reset()
    return net, sim, sources, sink


def _drain(net, sim, sources):
    sim.run_until(
        lambda: all(s.done for s in sources) and net.drained,
        max_cycles=100_000,
    )


def _digest(doc):
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fabric_digest(*run):
    net, sim, sources, sink = _fabric(*run)
    _drain(net, sim, sources)
    doc = {"cycle": sim.cycle, "stats": net.stats.snapshot()}
    if sink is not None:
        doc["events"] = [
            [e.ph, e.name, e.track, e.ts, e.dur, e.args] for e in sink.events
        ]
    return sim.cycle, _digest(doc)


@pytest.mark.parametrize("run", sorted(FABRIC_PINS), ids=str)
def test_fabric_run_matches_pinned_digest(run):
    assert _fabric_digest(*run) == FABRIC_PINS[run]


#: every run of FABRIC_PINS -> digests of a VCD dump over every fabric
#: wire (link and local channels) for the whole run, and of
#: ``sim.snapshot()["components"]`` at cycle 100, with flits in flight.  Each router's ``now`` is
#: blanked in the snapshot: it stamps the router's last eval for its
#: telemetry, so it moves with the eval schedule (it already differs
#: between kernel modes).  Captured with the links as wire handshakes,
#: so the derived tx/data/ack and the checkpoint format must match it.
WAVE_PINS = {
    ("mesh:4x4", False, False, 2, 7, 8): ("59db1d5d33e95cfa", "644e73cc30e4e694"),
    ("mesh:4x4", True, True, 4, 7, 8): ("34c8d20c87eced3d", "4057a3df4bf77d86"),
    ("mesh:4x4", True, False, 2, 1, 0): ("8eb4f5f47818fece", "e7470cec643a20cf"),
    ("mesh:4x4", False, True, 4, 1, 4): ("ec533ab4f2ca1131", "8ddd08ed1cec5e51"),
    ("mesh:5x3", False, True, 2, 7, 8): ("53c2ac3b4d3abf6a", "160ddfad53a4ac1c"),
    ("mesh:5x3", True, False, 4, 7, 8): ("6d27b7b726a586b5", "f16366c03d53ed57"),
    ("mesh:5x3", True, True, 2, 7, 0): ("4f6a23e38f083f23", "2ff811c88f5c58f1"),
    ("mesh:5x3", False, False, 4, 1, 8): ("b894b3031b953817", "96ac3019738dffab"),
    ("torus:4x4", False, False, 4, 7, 8): ("7905d2fbfc246c75", "5423efc51195d19b"),
    ("torus:4x4", True, True, 2, 7, 8): ("411642793ad2cdb6", "30a32c0cfe6b6bd0"),
    ("torus:4x4", True, False, 4, 1, 4): ("b941812bab6a83f5", "e5010aafeeb13cde"),
    ("torus:4x4", False, True, 2, 7, 0): ("d568a873a1d0e779", "53b554e1d26c448d"),
    ("cmesh:3x3x2", False, True, 4, 7, 8): ("8a656679cc5de594", "8c845fd8ccae48ed"),
    ("cmesh:3x3x2", True, False, 2, 7, 8): ("aaf0d68187b6f054", "c5f85f44f43c7bad"),
    ("cmesh:3x3x2", True, True, 4, 1, 8): ("a56ce9f2991a951e", "e6d3667ba0f96989"),
    ("cmesh:3x3x2", False, False, 2, 7, 4): ("a2663f8b4bb1962f", "809d11e4297d0f00"),
}


def _blank_clocks(node):
    if isinstance(node, dict):
        return {
            k: None if k == "now" else _blank_clocks(v)
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [_blank_clocks(v) for v in node]
    return node


@pytest.mark.parametrize("run", sorted(WAVE_PINS), ids=str)
def test_fabric_waveform_and_snapshot_match_pinned_digests(run):
    net, sim, sources, _ = _fabric(*run)
    vcd = VcdWriter(_mesh_wires(net.mesh))
    sim.add_watcher(vcd.sample)
    sim.step(100)
    assert not net.mesh.idle
    snapshot = _blank_clocks(sim.snapshot()["components"])
    _drain(net, sim, sources)
    assert sim.cycle == FABRIC_PINS[run][0]
    assert (_digest(vcd.dump()), _digest(snapshot)) == WAVE_PINS[run]


# ---------------------------------------------------------------------------
# Pinned serial waveforms
# ---------------------------------------------------------------------------

#: the program CI runs on processor 1 (``multinoc system hello.asm``)
HELLO = """
        CLR  R0
        LDI  R1, 42
        LDI  R2, 0xFFFF
        ST   R1, R2, R0
        HALT
"""

#: run -> (final cycle, digest of a VCD dump of the serial lines rxd and
#: txd), the same in both kernel modes.  "hello" is ``multinoc system``
#: on HELLO, "edge-4x16" the paper's edge detection of a 4x16 image on
#: processors 1 and 2.  Captured while the lines were latched by the
#: kernel's commit phase, so the waveform is pinned against that design.
SERIAL_WAVE_PINS = {
    "hello": (7015, "258049118ffbc3d5"),
    "edge-4x16": (32051, "930d466a1141c805"),
}


def _serial_run(run, strict):
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    vcd = VcdWriter([session.system.rxd, session.system.txd])
    session.sim.add_watcher(vcd.sample)
    if run == "hello":
        session.host.sync()
        addr = session.processor_address(1)
        session.host.load_program(addr, Program.from_source(HELLO).obj)
        session.host.activate(addr)
        cpu = session.system.processors[1].cpu
        session.sim.run_until(lambda: cpu.halted)
        session.sim.step(6000)
        assert session.host.monitor(1).printf_values == [42]
    else:
        rng = random.Random(7)
        image = [[rng.randrange(256) for _ in range(16)] for _ in range(4)]
        edge_detection(session, [1, 2], image)
    return session.sim.cycle, _digest(vcd.dump())


@pytest.mark.parametrize("strict", [False, True], ids=["quiescent", "lockstep"])
@pytest.mark.parametrize("run", sorted(SERIAL_WAVE_PINS))
def test_serial_waveform_matches_pinned_digest(run, strict):
    assert _serial_run(run, strict) == SERIAL_WAVE_PINS[run]

"""Observability satellites: VCD well-formedness, telemetry-disabled
equivalence and NetworkStats in-flight bookkeeping."""

import re

import pytest

from repro import MultiNoCPlatform
from repro.noc import HermesNetwork
from repro.noc.packet import Packet
from repro.noc.stats import NetworkStats
from repro.sim import Component, Simulator, VcdWriter
from repro.telemetry import TelemetrySink

PROGRAM = """
        CLR  R0
        LDI  R1, 7
        LDI  R2, 0xFFFF
        ST   R1, R2, R0
        HALT
"""


class Toggler(Component):
    def __init__(self):
        super().__init__("toggler")
        self.bit = self.wire("bit", reset=0, width=1)
        self.bus = self.wire("bus", reset=0, width=8)

    def eval(self, cycle):
        self.bit.drive(cycle & 1, cycle)
        self.bus.drive((cycle * 5) & 0xFF, cycle)


def parse_vcd(text):
    """Minimal VCD reader: returns (timescale, vars, changes).

    *vars* maps identifier -> (name, width); *changes* is a list of
    (time, identifier, value) with the running ``#`` timestamp applied.
    """
    timescale = None
    variables = {}
    changes = []
    time = None
    in_defs = True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if in_defs:
            m = re.match(r"\$timescale\s+(\S+)\s+\$end", line)
            if m:
                timescale = m.group(1)
            m = re.match(r"\$var\s+wire\s+(\d+)\s+(\S+)\s+(\S+)\s+\$end", line)
            if m:
                variables[m.group(2)] = (m.group(3), int(m.group(1)))
            if line == "$enddefinitions $end":
                in_defs = False
            continue
        if line.startswith("$"):
            continue
        if line.startswith("#"):
            time = int(line[1:])
        elif line.startswith("b"):
            value, ident = line[1:].split()
            changes.append((time, ident, int(value, 2)))
        else:
            changes.append((time, line[1:], int(line[0], 2)))
    return timescale, variables, changes


class TestVcdWellFormedness:
    @pytest.fixture
    def vcd_text(self):
        sim = Simulator()
        t = sim.add(Toggler())
        vcd = VcdWriter([t.bit, t.bus], timescale="40ns")
        sim.add_watcher(vcd.sample)
        sim.step(20)
        return vcd.dump()

    def test_header_parses_back(self, vcd_text):
        timescale, variables, _ = parse_vcd(vcd_text)
        assert timescale == "40ns"
        names = {name for name, _ in variables.values()}
        assert names == {"bit", "bus"}
        widths = {name: w for name, w in variables.values()}
        assert widths == {"bit": 1, "bus": 8}

    def test_change_records_parse_back(self, vcd_text):
        _, variables, changes = parse_vcd(vcd_text)
        assert changes, "a toggling wire must produce change records"
        ident_of = {name: i for i, (name, _) in variables.items()}
        # every change references a declared identifier
        assert all(ident in variables for _, ident, _ in changes)
        bit_values = [v for _, i, v in changes if i == ident_of["bit"]]
        assert set(bit_values) <= {0, 1}
        bus_values = [v for _, i, v in changes if i == ident_of["bus"]]
        assert all(0 <= v <= 0xFF for v in bus_values)

    def test_timestamps_monotonic(self, vcd_text):
        _, _, changes = parse_vcd(vcd_text)
        stamped = [t for t, _, _ in changes if t is not None]
        assert stamped == sorted(stamped)


class TestDisabledEquivalence:
    """A run with telemetry disabled must produce exactly the numbers the
    seed produced: the hooks may not perturb simulation behaviour."""

    def _run(self, telemetry):
        session = MultiNoCPlatform.standard().launch(telemetry=telemetry)
        session.host.sync()
        session.run(1, PROGRAM)
        stats = session.system.stats
        return {
            "cycle": session.sim.cycle,
            "injected": stats.packets_injected,
            "delivered": stats.packets_delivered,
            "flits": stats.delivered_flits,
            "latencies": sorted(stats.latencies),
            "flits_sent": dict(stats.flits_sent),
            "printf": session.host.monitor(1).printf_values,
        }

    def test_enabled_and_disabled_runs_match(self):
        plain = self._run(telemetry=None)
        traced = self._run(telemetry=True)
        assert plain == traced
        assert plain["printf"] == [7]

    def test_disabled_session_has_no_sink(self):
        session = MultiNoCPlatform.standard().launch()
        assert session.telemetry is None
        assert session.system.processors[1].cpu.sink is None
        assert session.system.processors[1].cpu.pc_samples is None
        assert all(
            r.sink is None for r in session.system.mesh.routers.values()
        )

    def _run_contended(self, telemetry):
        """A NoC-only run with two flows colliding on one output port —
        the enrichment hooks (hdr framing, flow ids, PC sampling) must
        not perturb a contended wormhole schedule either."""
        sink = TelemetrySink() if telemetry else None
        net = HermesNetwork(2, 2, telemetry=sink)
        sim = net.make_simulator()
        sim.reset()
        for i in range(3):
            net.send((0, 0), (1, 1), [1, 2, 3 + i])
            net.send((1, 0), (1, 1), [4, 5 + i])
        net.run_to_drain(sim)
        return {
            "cycle": sim.cycle,
            "latencies": sorted(net.stats.latencies),
            "delivered": net.stats.packets_delivered,
            "blocked": dict(net.stats.blocked_routings),
        }

    def test_contended_runs_match_with_and_without_telemetry(self):
        assert self._run_contended(False) == self._run_contended(True)


class TestInFlightBookkeeping:
    def _packet(self, payload, cycle=100):
        return Packet(target=(1, 1), payload=payload, injected_cycle=cycle)

    def test_matched_delivery_clears_key(self):
        stats = NetworkStats()
        stats.packet_injected(self._packet([1, 2]))
        assert stats.in_flight_count == 1
        delivered = self._packet([1, 2], cycle=None)
        delivered.delivered_cycle = 130
        stats.packet_delivered(delivered, at=(1, 1))
        assert stats.in_flight_count == 0
        assert stats._in_flight == {}  # no empty-list residue
        assert stats.latencies == [30]

    def test_unmatched_delivery_counted_not_crashed(self):
        stats = NetworkStats()
        ghost = self._packet([9], cycle=None)
        stats.packet_delivered(ghost, at=(1, 1))
        assert stats.unmatched_deliveries == 1
        assert stats.packets_delivered == 1
        assert stats.in_flight_count == 0

    def test_prune_drops_stale_stamps(self):
        stats = NetworkStats()
        stats.packet_injected(self._packet([1], cycle=10))
        stats.packet_injected(self._packet([1], cycle=500))
        stats.packet_injected(self._packet([2], cycle=20))
        assert stats.in_flight_count == 3
        dropped = stats.prune_in_flight(older_than_cycle=100)
        assert dropped == 2
        assert stats.in_flight_count == 1
        assert stats.packets_dropped == 2
        # the stale-only key is gone entirely
        assert ((1, 1), (2,)) not in stats._in_flight

    def test_prune_keeps_unstamped_packets(self):
        stats = NetworkStats()
        stats.packet_injected(self._packet([3], cycle=None))
        assert stats.prune_in_flight(older_than_cycle=10_000) == 0
        assert stats.in_flight_count == 1

    def test_gauge_tracks_in_flight(self):
        stats = NetworkStats()
        gauge = stats.registry.get("noc_packets_in_flight")
        assert gauge.read() == 0
        stats.packet_injected(self._packet([5]))
        assert gauge.read() == 1


class TestNetworkRunStats:
    def test_hermes_network_stats_consistent(self):
        net = HermesNetwork(3, 3)
        sim = net.make_simulator()
        for i in range(6):
            net.send((0, 0), (2, 2), [i, i + 1])
        net.run_to_drain(sim)
        stats = net.stats
        assert stats.packets_delivered == stats.packets_injected == 6
        assert stats.in_flight_count == 0
        assert stats.unmatched_deliveries == 0
        summary = stats.latency_summary()
        assert summary["count"] == 6
        assert summary["p50"] <= summary["p99"] <= summary["max"]

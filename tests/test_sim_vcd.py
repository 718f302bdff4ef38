"""Tests for the VCD waveform exporter."""

import pytest

from repro.noc import HermesNetwork
from repro.sim import Component, Simulator, VcdWriter, Wire
from repro.sim.vcd import _identifier

from .test_equivalence import PRINTF_BOARD, Draw, assert_matches_lockstep


class Toggler(Component):
    def __init__(self):
        super().__init__("toggler")
        self.bit = self.wire("bit", reset=0, width=1)
        self.bus = self.wire("bus", reset=0, width=8)

    def eval(self, cycle):
        self.bit.drive(cycle & 1, cycle)
        self.bus.drive((cycle * 3) & 0xFF, cycle)


@pytest.fixture
def traced():
    sim = Simulator()
    t = sim.add(Toggler())
    vcd = VcdWriter([t.bit, t.bus])
    sim.add_watcher(vcd.sample)
    sim.step(10)
    return vcd


class TestIdentifiers:
    def test_compact_and_unique(self):
        ids = [_identifier(i) for i in range(200)]
        assert len(set(ids)) == 200
        assert all(ids)
        assert _identifier(0) == "!"


class TestDump:
    def test_header_sections(self, traced):
        text = traced.dump()
        assert "$timescale 20ns $end" in text
        assert "$scope module toggler $end" in text
        assert "$enddefinitions $end" in text

    def test_var_declarations_with_widths(self, traced):
        text = traced.dump()
        assert "$var wire 1 " in text
        assert "$var wire 8 " in text

    def test_scalar_and_vector_value_lines(self, traced):
        text = traced.dump()
        body = text.split("$dumpvars")[1]
        assert any(
            line and line[0] in "01" and not line.startswith("#")
            for line in body.splitlines()
        )
        assert any(line.startswith("b") for line in body.splitlines())

    def test_changes_are_timestamped_in_order(self, traced):
        times = [
            int(line[1:])
            for line in traced.dump().splitlines()
            if line.startswith("#")
        ]
        assert times == sorted(times)

    def test_only_changes_recorded(self):
        sim = Simulator()
        w = Wire("static.sig", reset=0, width=1)
        vcd = VcdWriter([w])
        sim.add_watcher(vcd.sample)
        sim.step(20)
        assert len(vcd._changes) == 0

    def test_write_to_file(self, traced, tmp_path):
        path = traced.write(tmp_path / "wave.vcd")
        assert path.read_text().startswith("$date")

    def test_handshake_trace_from_real_network(self, tmp_path):
        net = HermesNetwork(2, 1)
        sim = net.make_simulator()
        into, out = net.mesh.local_channels((1, 0))
        vcd = VcdWriter([out.tx, out.data, out.ack])
        sim.add_watcher(vcd.sample)
        net.send((0, 0), (1, 0), [9, 8])
        net.run_to_drain(sim)
        text = vcd.dump()
        # the ack pulses once per flit: 4 flits on the wire
        body = text.split("$dumpvars")[1]
        ack_id = None
        for line in text.splitlines():
            if "$var" in line and "out.ack" in line:
                ack_id = line.split()[3]
        rises = sum(
            1 for line in body.splitlines() if line == f"1{ack_id}"
        )
        assert rises == 4

    def test_cross_mode_dump_identity(self):
        """The waveform must not depend on the kernel's scheduling mode.

        Idle fast-forward skips quiet spans, but nothing toggles inside
        a quiet span by construction, so sampling at active cycles (and
        once at each landing cycle) captures the identical change list
        the strict lock-step kernel records cycle by cycle; the oracle
        compares the serial line's dump without its ``$comment`` lines.
        """
        assert_matches_lockstep(Draw(PRINTF_BOARD, (False,)))

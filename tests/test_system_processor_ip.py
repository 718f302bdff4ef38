"""Focused tests for the Processor IP control logic (paper Section 2.4)."""

import pytest

from repro import MultiNoCPlatform
from repro.host import SerialSoftware
from repro.noc import services
from repro.noc.flit import encode_address
from repro.r8 import assemble
from repro.system import MultiNoC


def make_session():
    system = MultiNoC()
    sim = system.make_simulator()
    host = SerialSoftware(system).connect(sim)
    host.sync()
    return system, sim, host


class TestWaitPacketService:
    """Service 9: a wait *packet* parks a processor until notified."""

    def test_wait_packet_pauses_running_processor(self):
        system, sim, host = make_session()
        proc = system.processor(1)
        host.load_program((0, 1), assemble("loop: NOP\nJMPD loop"))
        host.activate((0, 1))
        sim.step(200)
        running = proc.cpu.instructions_retired
        assert running > 0
        # inject a wait packet from P2's side
        system.processor(2).ni.send_packet(
            services.encode_wait((0, 1), source=2)
        )
        sim.step(400)
        paused_at = proc.cpu.instructions_retired
        sim.step(400)
        assert proc.cpu.instructions_retired == paused_at  # frozen
        assert proc.cpu.paused

    def test_notify_resumes_wait_packet(self):
        system, sim, host = make_session()
        proc = system.processor(1)
        host.load_program((0, 1), assemble("loop: NOP\nJMPD loop"))
        host.activate((0, 1))
        sim.step(100)
        system.processor(2).ni.send_packet(
            services.encode_wait((0, 1), source=2)
        )
        sim.step(300)
        frozen = proc.cpu.instructions_retired
        system.processor(2).ni.send_packet(
            services.encode_notify((0, 1), source=2)
        )
        sim.step(300)
        assert proc.cpu.instructions_retired > frozen
        assert not proc.cpu.paused


class TestLocalMemoryServer:
    def test_backlogged_operations_all_served(self):
        """Several write packets land while one is being served."""
        system, sim, host = make_session()
        proc = system.processor(1)
        ni = system.processor(2).ni
        for i in range(5):
            ni.send_packet(
                services.encode_write((0, 1), 0x100 + 8 * i, [i + 1] * 8)
            )
        sim.run_until(
            lambda: proc.server_idle and not ni.tx_busy, max_cycles=50_000
        )
        sim.step(100)
        for i in range(5):
            assert proc.dump(0x100 + 8 * i, 8) == [i + 1] * 8

    def test_read_while_cpu_runs(self):
        """Host reads the local memory of a *running* processor —
        exactly Figure 9's live debugging."""
        system, sim, host = make_session()
        host.write_memory((0, 1), 0x200, [0x5A5A])
        host.load_program((0, 1), assemble("loop: NOP\nJMPD loop"))
        host.activate((0, 1))
        sim.step(50)
        assert host.read_memory((0, 1), 0x200, 1) == [0x5A5A]
        assert not system.processor(1).cpu.halted  # still running

    def test_request_wraps_past_last_word(self):
        """Host words written past word 1023 wrap to word 0, as at the
        Memory IP: both serve requests with the same block."""
        session = MultiNoCPlatform.standard().launch()
        session.host.sync()
        session.write(1, 0x3FE, [1, 2, 3, 4])
        assert session.read(1, 0x3FE, 2) == [1, 2]
        assert session.read(1, 0x000, 2) == [3, 4]

    def test_unknown_service_recorded_not_fatal(self):
        system, sim, host = make_session()
        proc = system.processor(1)
        from repro.noc.packet import Packet

        system.processor(2).ni.send_packet(Packet((0, 1), [0x7F, 0x00]))
        sim.step(2000)
        assert len(proc.dropped_packets) == 1


class TestProtocolErrors:
    def test_unexpected_read_return_raises(self):
        system, sim, host = make_session()
        system.processor(2).ni.send_packet(
            services.encode_read_return((0, 1), 0, [1])
        )
        with pytest.raises(RuntimeError):
            sim.step(2000)

    def test_unexpected_scanf_return_raises(self):
        system, sim, host = make_session()
        system.processor(2).ni.send_packet(
            services.encode_scanf_return((0, 1), 5)
        )
        with pytest.raises(RuntimeError):
            sim.step(2000)

    def test_notify_unknown_processor_number(self):
        system, sim, host = make_session()
        host.load_program((0, 1), assemble(
            "CLR R0\nLDI R3, 9\nLDI R2, 0xFFFD\nST R3, R2, R0\nHALT"
        ))
        host.activate((0, 1))
        with pytest.raises(Exception):
            sim.run_until(
                lambda: system.processor(1).cpu.halted, max_cycles=50_000
            )


class TestStallAccounting:
    def test_remote_access_counts_stall_cycles(self):
        system, sim, host = make_session()
        host.write_memory((1, 1), 0, [1])
        host.run_program((0, 1), 1, assemble(
            "CLR R0\nLDI R2, 2048\nLD R1, R2, R0\nHALT"
        ))
        assert system.processor(1).cpu.cycles_stalled > 20

    def test_local_access_does_not_stall(self):
        system, sim, host = make_session()
        host.run_program((0, 1), 1, assemble(
            "CLR R0\nLDI R2, 0x80\nLD R1, R2, R0\nST R1, R2, R0\nHALT"
        ))
        assert system.processor(1).cpu.cycles_stalled == 0

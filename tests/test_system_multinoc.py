"""Full-system integration tests: the 2x2 MultiNoC with host software."""

import pytest

from repro import MultiNoCPlatform
from repro.host import SerialSoftware
from repro.r8 import assemble
from repro.sim import restore_checkpoint
from repro.system import MultiNoC, SystemConfig

from .test_equivalence import CONSUMER, PRODUCER, _sea_worker


@pytest.fixture
def session():
    system = MultiNoC()
    sim = system.make_simulator()
    host = SerialSoftware(system).connect(sim)
    host.sync()
    return system, sim, host


class TestConfig:
    def test_paper_configuration(self):
        config = SystemConfig.paper()
        assert config.mesh == (2, 2)
        assert config.serial == (0, 0)
        assert config.processors == {1: (0, 1), 2: (1, 0)}
        assert config.memories == [(1, 1)]

    def test_collision_rejected(self):
        config = SystemConfig(processors={1: (0, 0), 2: (1, 0)})
        with pytest.raises(ValueError):
            config.validate()

    def test_off_mesh_rejected(self):
        config = SystemConfig(memories=[(5, 5)])
        with pytest.raises(ValueError):
            config.validate()

    def test_processor_id_zero_reserved(self):
        config = SystemConfig(processors={0: (0, 1)})
        with pytest.raises(ValueError):
            config.validate()

    def test_id_to_flit_table(self):
        table = SystemConfig.paper().id_to_flit()
        assert table == {0: 0x00, 1: 0x01, 2: 0x10}


class TestHostMemoryAccess:
    def test_remote_memory_write_read(self, session):
        system, sim, host = session
        host.write_memory((1, 1), 0x100, [1, 2, 3, 0xFFFF])
        assert host.read_memory((1, 1), 0x100, 4) == [1, 2, 3, 0xFFFF]

    def test_processor_local_memory_write_read(self, session):
        system, sim, host = session
        host.write_memory((0, 1), 0x200, [42])
        assert host.read_memory((0, 1), 0x200, 1) == [42]

    def test_large_transfer_chunks(self, session):
        system, sim, host = session
        data = [(i * 7) & 0xFFFF for i in range(200)]
        host.write_memory((1, 1), 0, data)
        assert host.read_memory((1, 1), 0, 200) == data

    def test_figure9_debug_read_bytes(self, session):
        """Drive the literal Figure 9 byte sequence 00 01 01 00 20."""
        system, sim, host = session
        host.write_memory((0, 1), 0x20, [0xBEEF])
        host.uart_tx.send_bytes([0x00, 0x01, 0x01, 0x00, 0x20])
        sim.run_until(lambda: host.read_returns, max_cycles=100_000)
        reply = host.read_returns.popleft()
        assert reply.address == 0x20
        assert reply.words == [0xBEEF]


class TestProgramExecution:
    def test_activate_starts_processor(self, session):
        system, sim, host = session
        obj = assemble("LDL R1, 5\nHALT")
        host.load_program((0, 1), obj)
        assert system.processor(1).cpu.halted
        host.activate((0, 1))
        sim.run_until(lambda: system.processor(1).cpu.halted, max_cycles=10_000)
        assert system.processor(1).cpu.state.regs[1] == 5
        assert system.processor(1).activations == 1

    def test_printf_reaches_monitor(self, session):
        system, sim, host = session
        host.run_program(
            (0, 1), 1,
            assemble("CLR R0\nLDI R1, 777\nLDI R2, 0xFFFF\nST R1, R2, R0\nHALT"),
        )
        assert host.monitor(1).printf_values == [777]

    def test_scanf_round_trip_with_handler(self, session):
        system, sim, host = session
        host.set_scanf_handler(2, lambda: 3333)
        host.run_program(
            (1, 0), 2,
            assemble(
                "CLR R0\nLDI R2, 0xFFFF\nLD R1, R2, R0\n"
                "ST R1, R2, R0\nHALT"
            ),
        )
        assert host.monitor(2).printf_values == [3333]
        assert host.monitor(2).scanfs[0][1] == 3333

    def test_processor_reads_remote_memory(self, session):
        system, sim, host = session
        host.write_memory((1, 1), 7, [0x1234])
        host.run_program(
            (0, 1), 1,
            assemble(
                "CLR R0\nLDI R2, 2055\nLD R1, R2, R0\n"  # 2048 + 7
                "LDI R2, 0xFFFF\nST R1, R2, R0\nHALT"
            ),
        )
        assert host.monitor(1).printf_values == [0x1234]

    def test_processor_writes_remote_memory(self, session):
        system, sim, host = session
        host.run_program(
            (0, 1), 1,
            assemble("CLR R0\nLDI R1, 99\nLDI R2, 2060\nST R1, R2, R0\nHALT"),
        )
        assert host.read_memory((1, 1), 12, 1) == [99]

    def test_processor_accesses_other_processors_memory(self, session):
        system, sim, host = session
        host.run_program(
            (0, 1), 1,
            assemble(
                "CLR R0\nLDI R1, 0xABCD\nLDI R2, 1024+0x300\nST R1, R2, R0\nHALT"
            ),
        )
        assert host.read_memory((1, 0), 0x300, 1) == [0xABCD]
        # and P2 can read it locally
        host.run_program(
            (1, 0), 2,
            assemble(
                "CLR R0\nLDI R2, 0x300\nLD R1, R2, R0\n"
                "LDI R2, 0xFFFF\nST R1, R2, R0\nHALT"
            ),
        )
        assert host.monitor(2).printf_values == [0xABCD]

    def test_invalid_address_raises(self, session):
        system, sim, host = session
        obj = assemble("CLR R0\nLDI R2, 0x4000\nLD R1, R2, R0\nHALT")
        host.load_program((0, 1), obj)
        with pytest.raises(Exception):
            host.activate((0, 1))
            sim.run_until(
                lambda: system.processor(1).cpu.halted, max_cycles=10_000
            )


class TestSynchronisation:
    def test_wait_blocks_until_notify(self, session):
        system, sim, host = session
        # P1 waits for P2, then printfs
        host.load_program((0, 1), assemble(
            "CLR R0\nLDL R3, 2\nLDI R2, 0xFFFE\nST R3, R2, R0\n"
            "LDI R1, 11\nLDI R2, 0xFFFF\nST R1, R2, R0\nHALT"
        ))
        host.activate((0, 1))
        sim.step(5000)
        assert not system.processor(1).cpu.halted  # still waiting
        # P2 notifies P1
        host.load_program((1, 0), assemble(
            "CLR R0\nLDL R3, 1\nLDI R2, 0xFFFD\nST R3, R2, R0\nHALT"
        ))
        host.activate((1, 0))
        sim.run_until(lambda: system.all_halted, max_cycles=100_000)
        sim.step(2000)
        assert host.monitor(1).printf_values == [11]

    def test_notify_before_wait_is_buffered(self, session):
        system, sim, host = session
        # P2 notifies P1 first
        host.run_program((1, 0), 2, assemble(
            "CLR R0\nLDL R3, 1\nLDI R2, 0xFFFD\nST R3, R2, R0\nHALT"
        ))
        # P1 waits afterwards: must not deadlock
        host.run_program((0, 1), 1, assemble(
            "CLR R0\nLDL R3, 2\nLDI R2, 0xFFFE\nST R3, R2, R0\nHALT"
        ))
        assert system.processor(1).cpu.halted

    def test_ping_pong_many_rounds(self, session):
        from repro.apps import programs

        system, sim, host = session
        host.load_program((0, 1), assemble(programs.ping(peer_id=2, rounds=5)))
        host.load_program((1, 0), assemble(programs.pong(peer_id=1, rounds=5)))
        host.activate((1, 0))
        host.activate((0, 1))
        sim.run_until(lambda: system.all_halted, max_cycles=500_000)
        sim.step(2000)
        assert host.monitor(1).printf_values == [5]


class TestLargerPlatforms:
    def test_3x3_with_four_processors(self):
        config = SystemConfig(
            mesh=(3, 3),
            serial=(0, 0),
            processors={1: (1, 0), 2: (2, 0), 3: (0, 1), 4: (1, 1)},
            memories=[(2, 1), (0, 2)],
        )
        system = MultiNoC(config)
        sim = system.make_simulator()
        host = SerialSoftware(system).connect(sim)
        host.sync()
        for pid, addr in config.processors.items():
            host.run_program(addr, pid, assemble(
                f"CLR R0\nLDI R1, {pid * 100}\nLDI R2, 0xFFFF\nST R1, R2, R0\nHALT"
            ))
        for pid in config.processors:
            assert host.monitor(pid).printf_values == [pid * 100]

    def test_second_memory_window(self):
        config = SystemConfig(
            mesh=(3, 1),
            serial=(0, 0),
            processors={1: (1, 0)},
            memories=[(2, 0)],
        )
        system = MultiNoC(config)
        sim = system.make_simulator()
        host = SerialSoftware(system).connect(sim)
        host.sync()
        # with one processor and one memory, the memory window starts at 1024
        host.run_program((1, 0), 1, assemble(
            "CLR R0\nLDI R1, 55\nLDI R2, 1030\nST R1, R2, R0\nHALT"
        ))
        assert host.read_memory((2, 0), 6, 1) == [55]


class TestReset:
    def test_reset_board_equals_a_fresh_launch(self):
        """After a printf run, reset returns the whole board to its
        power-on state: NoC statistics, UART framing and the auto-baud
        divisor included.  Memory words and the loaded program's
        symbols stay, as BlockRAM contents do."""

        def board(session):
            def strip(node):
                if isinstance(node, dict):
                    return {
                        k: strip(v)
                        for k, v in node.items()
                        if k not in ("mem", "symbols")
                    }
                if isinstance(node, list):
                    return [strip(v) for v in node]
                return node

            return strip(session.system.snapshot())

        session = MultiNoCPlatform.standard().launch()
        session.host.sync()
        session.run(1, "CLR R0\nLDI R1, 42\nLDI R2, 0xFFFF\nST R1, R2, R0\nHALT")
        assert session.host.monitor(1).printf_values == [42]
        assert session.system.stats.packets_delivered > 0
        session.sim.reset()
        assert board(session) == board(MultiNoCPlatform.standard().launch())


def _idle_walk(system):
    """``MultiNoC.idle`` as a walk over every IP: the reference for the
    system's busy counts."""
    return (
        system.mesh.idle
        and not system.serial.busy
        and all(
            not p.ni.tx_busy and p.server_idle
            for p in system.processors.values()
        )
        and all(not m.noc_busy for m in system.memories)
    )


def _idle_workload(name, strict):
    """A launched board and its pid -> program map, in start order."""
    if name == "sync":
        session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
        return session, {2: CONSUMER, 1: PRODUCER}
    n = 6
    session = MultiNoCPlatform(topology="mesh:3x3", n_processors=n).launch(
        strict_lockstep=strict
    )
    system = session.system
    return session, {
        pid: _sea_worker(
            pid, n, 5, system.numa_base(pid, pid + 1) if pid < n else None
        )
        for pid in range(1, n + 1)
    }


class TestIdle:
    @pytest.mark.parametrize("strict", [False, True], ids=["quiescent", "lockstep"])
    @pytest.mark.parametrize("workload", ["sync", "sea3x3"])
    def test_idle_equals_the_walk_at_every_cycle(self, workload, strict):
        session, programs = _idle_workload(workload, strict)
        system = session.system
        seen = []

        def watcher(cycle):
            assert system.idle == _idle_walk(system), cycle
            seen.append(system.busy_servers)

        session.sim.add_watcher(watcher)
        session.host.sync()
        for pid, program in programs.items():
            session.start(pid, program)
        session.wait_all_halted(max_cycles=2_000_000)
        session.sim.step(2_000)
        assert system.idle and max(seen) > 0

    def test_restore_and_reset_recount(self):
        """A board restored mid-request counts the busy servers and NIs
        of the snapshot, and a reset counts none."""
        session, programs = _idle_workload("sync", False)
        system = session.system
        taken = []

        def watcher(cycle):
            if system.busy_servers and not taken:
                busy = (system.busy_nis, system.busy_servers)
                taken.append(({"state": session.sim.snapshot()}, busy))

        session.sim.add_watcher(watcher)
        session.host.sync()
        session.start(1, programs[1])
        doc, busy = taken[0]
        target, _ = _idle_workload("sync", False)
        restore_checkpoint(target.sim, doc)
        assert (target.system.busy_nis, target.system.busy_servers) == busy
        assert not target.system.idle
        target.sim.reset()
        assert (target.system.busy_nis, target.system.busy_servers) == (0, 0)
        assert target.system.idle

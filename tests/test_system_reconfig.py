"""Tests for partial/dynamic reconfiguration (paper Section 5)."""

import pytest

from repro.core import MultiNoCPlatform
from repro.noc.flit import encode_address
from repro.noc.services import WriteRequest
from repro.serial import protocol
from repro.system import ReconfigError, ReconfigurationManager

from .test_system_multinoc import _idle_walk


def make_session():
    session = MultiNoCPlatform(
        mesh=(4, 4),
        n_processors=1,
        n_memories=1,
        processors_at={1: (1, 0)},
        memories_at=[(3, 3)],
    ).launch()
    session.host.sync()
    return session


REMOTE_LOADS = "CLR R0\nLDI R2, 1024\n" + "LD R1, R2, R0\n" * 8 + "HALT"


class TestRelocation:
    def test_memory_contents_survive_relocation(self):
        session = make_session()
        session.write("mem0", 0, [1, 2, 3])
        ReconfigurationManager(session.system).relocate("mem0", (2, 0))
        assert session.read("mem0", 0, 3) == [1, 2, 3]

    def test_relocation_shortens_numa_latency(self):
        """The paper's motivation: move IPs closer, gain throughput."""
        session = make_session()
        session.write("mem0", 0, [7] * 8)
        session.run(1, REMOTE_LOADS)
        cpu = session.system.processor(1).cpu
        far = cpu.cycles_stalled
        ReconfigurationManager(session.system).relocate("mem0", (2, 0))
        cpu.reset()
        session.run(1, REMOTE_LOADS)
        near = cpu.cycles_stalled
        assert near < far

    def test_processor_relocation_keeps_it_runnable(self):
        session = make_session()
        mgr = ReconfigurationManager(session.system)
        mgr.relocate("proc1", (0, 3))
        session.run(1, "CLR R0\nLDI R1, 5\nLDI R2, 0xFFFF\nST R1, R2, R0\nHALT")
        assert session.host.monitor(1).printf_values == [5]

    def test_occupied_target_rejected(self):
        session = make_session()
        with pytest.raises(ReconfigError):
            ReconfigurationManager(session.system).relocate("mem0", (1, 0))

    def test_off_mesh_target_rejected(self):
        session = make_session()
        with pytest.raises(ReconfigError):
            ReconfigurationManager(session.system).relocate("mem0", (9, 9))

    def test_serial_not_relocatable(self):
        session = make_session()
        with pytest.raises(ReconfigError):
            ReconfigurationManager(session.system).relocate("serial", (2, 2))

    def test_unknown_ip_rejected(self):
        session = make_session()
        with pytest.raises(ReconfigError):
            ReconfigurationManager(session.system).relocate("gpu0", (2, 2))

    def test_requires_quiescent_network(self):
        session = make_session()
        # launch a long write and reconfigure mid-flight
        session.host.uart_tx.send_bytes(
            [0x01, 0x11, 4, 0x00, 0x00, 1, 1, 2, 2, 3, 3, 4, 4]
        )
        mgr = ReconfigurationManager(session.system)
        # step until flits are actually in the mesh
        for _ in range(3000):
            session.sim.step()
            if not session.system.mesh.idle:
                break
        assert not session.system.mesh.idle
        with pytest.raises(ReconfigError):
            mgr.relocate("mem0", (2, 0))


class TestSwap:
    def test_swap_processor_and_memory(self):
        session = MultiNoCPlatform.standard().launch()
        session.host.sync()
        session.write("mem0", 5, [0xAB])
        mgr = ReconfigurationManager(session.system)
        mgr.swap("proc1", "mem0")
        assert session.system.config.processors[1] == (1, 1)
        assert session.system.config.memories[0] == (0, 1)
        # both still work in their new homes
        assert session.read("mem0", 5, 1) == [0xAB]
        session.run(1, "CLR R0\nLDI R1, 9\nLDI R2, 0xFFFF\nST R1, R2, R0\nHALT")
        assert session.host.monitor(1).printf_values == [9]

    def test_swap_serial_rejected(self):
        session = MultiNoCPlatform.standard().launch()
        with pytest.raises(ReconfigError):
            ReconfigurationManager(session.system).swap("serial", "mem0")


class TestInsertRemove:
    def test_remove_then_reads_fail_structurally(self):
        session = MultiNoCPlatform.standard().launch()
        session.host.sync()
        mgr = ReconfigurationManager(session.system)
        removed = mgr.remove_memory(0)
        assert session.system.memories == []
        assert removed.ni.to_router is None

    def test_insert_memory_is_usable(self):
        session = MultiNoCPlatform(
            mesh=(2, 2), n_processors=1, n_memories=0
        ).launch()
        session.host.sync()
        mgr = ReconfigurationManager(session.system)
        mgr.insert_memory((1, 1))
        session.write("mem0", 0, [42])
        assert session.read("mem0", 0, 1) == [42]
        # the new memory appears in the processor's NUMA window
        session.run(
            1,
            "CLR R0\nLDI R2, 1024\nLD R1, R2, R0\n"
            "LDI R2, 0xFFFF\nST R1, R2, R0\nHALT",
        )
        assert session.host.monitor(1).printf_values == [42]

    def test_remove_and_reinsert_cycle(self):
        session = MultiNoCPlatform.standard().launch()
        session.host.sync()
        mgr = ReconfigurationManager(session.system)
        mgr.remove_memory(0)
        mgr.insert_memory((1, 1))
        session.write("mem0", 1, [3])
        assert session.read("mem0", 1, 1) == [3]
        assert mgr.reconfigurations == 2

    def test_idle_counts_an_inserted_memory_and_forgets_a_removed_one(self):
        session = MultiNoCPlatform(
            mesh=(2, 2), n_processors=1, n_memories=0
        ).launch()
        session.host.sync()
        system = session.system
        mgr = ReconfigurationManager(system)
        mem = mgr.insert_memory((1, 1))

        def watcher(cycle):
            assert system.idle == _idle_walk(system), cycle

        session.sim.add_watcher(watcher)
        session.write("mem0", 0, list(range(64)))
        assert session.read("mem0", 0, 64) == list(range(64))
        # a server still busy behind a quiet fabric refuses removal
        mem.banks.accept(WriteRequest(address=0, words=[7] * 8))
        mem.wake()
        assert not system.idle
        with pytest.raises(ReconfigError, match="busy"):
            mgr.remove_memory(0)
        assert system.memories == [mem]
        session.sim.run_until(lambda: system.idle)
        assert mem.dump(0, 8) == [7] * 8
        mgr.remove_memory(0)
        assert system.idle and _idle_walk(system)

    def test_a_memory_whose_server_holds_a_write_is_not_removed(self):
        session = MultiNoCPlatform.standard().launch()
        session.host.sync()
        system = session.system
        mem = system.memories[0]
        mgr = ReconfigurationManager(system)
        words = list(range(100, 140))
        flit = encode_address(*system.config.memories[0])
        session.host.uart_tx.send_bytes(protocol.frame_write(flit, 0, words))
        # the packet has left the fabric; the server is writing it
        session.sim.run_until(lambda: not mem.banks.idle and system.mesh.idle)
        with pytest.raises(ReconfigError, match="memory 0 is busy"):
            mgr.remove_memory(0)
        assert system.memories == [mem] and mgr.reconfigurations == 0
        session.sim.run_until(lambda: system.idle)
        assert mgr.remove_memory(0) is mem
        assert mem.dump(0, len(words)) == words

    def test_area_on_demand(self):
        """Removing the memory IP frees slices in the area model."""
        from repro.fpga import AreaModel

        session = MultiNoCPlatform.standard().launch()
        model = AreaModel()
        before = model.system(session.system.config).total.slices
        ReconfigurationManager(session.system).remove_memory(0)
        after = model.system(session.system.config).total.slices
        assert after < before

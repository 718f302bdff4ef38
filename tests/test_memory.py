"""Tests for BlockRAM banks and the Memory IP core."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory import BlockRam, MemoryBanks, MemoryIp
from repro.noc import HermesNetwork, services
from repro.noc.flit import encode_address


class TestBlockRam:
    def test_nibble_width_enforced(self):
        ram = BlockRam()
        ram.write(0, 0xF)
        with pytest.raises(ValueError):
            ram.write(0, 0x10)

    def test_depth_enforced(self):
        ram = BlockRam(depth=4)
        with pytest.raises(IndexError):
            ram.read(4)
        with pytest.raises(IndexError):
            ram.write(-1, 0)

    def test_read_back(self):
        ram = BlockRam()
        ram.write(100, 0xA)
        assert ram.read(100) == 0xA

    def test_words_are_at_most_a_byte_wide(self):
        """Banks keep one byte per word, so a wider BlockRAM is refused."""
        assert BlockRam(width=8).data == bytearray(1024)
        with pytest.raises(ValueError, match="width 9"):
            BlockRam(width=9)


class TestMemoryBanks:
    def test_four_nibble_banks(self):
        banks = MemoryBanks()
        assert len(banks.banks) == 4

    def test_word_spreads_across_banks(self):
        """Figure 4: RAM3 holds bits 15:12 ... RAM0 bits 3:0."""
        banks = MemoryBanks()
        banks.write_word(5, 0xABCD)
        assert banks.banks[3].read(5) == 0xA
        assert banks.banks[2].read(5) == 0xB
        assert banks.banks[1].read(5) == 0xC
        assert banks.banks[0].read(5) == 0xD

    def test_word_roundtrip(self):
        banks = MemoryBanks()
        banks.write_word(0, 0x1234)
        assert banks.read_word(0) == 0x1234

    def test_word_range_checked(self):
        with pytest.raises(ValueError):
            MemoryBanks().write_word(0, 0x10000)

    def test_load_and_dump(self):
        banks = MemoryBanks()
        banks.load([1, 2, 3], base=10)
        assert banks.dump(10, 3) == [1, 2, 3]

    @given(st.dictionaries(st.integers(0, 1023), st.integers(0, 0xFFFF),
                           max_size=50))
    def test_model_equivalence(self, writes):
        """The nibble-bank composite behaves as a flat word memory."""
        banks = MemoryBanks()
        model = {}
        for addr, value in writes.items():
            banks.write_word(addr, value)
            model[addr] = value
        for addr, value in model.items():
            assert banks.read_word(addr) == value


def memory_on_network():
    """A memory IP at (1, 0) of a 2x1 mesh, driven from NI (0, 0)."""
    net = HermesNetwork(2, 1)
    mem = MemoryIp("mem", (1, 0), stats=net.stats)
    into, out = net.mesh.local_channels((1, 0))
    # displace the default NI at (1,0): rewire the memory's NI instead
    net._children = [c for c in net._children]
    ni = net.interfaces.pop((1, 0))
    net._children.remove(ni)
    mem.ni.attach(to_router=into, from_router=out)
    net.add_child(mem)
    sim = net.make_simulator()
    return net, mem, sim


class TestMemoryIpNoC:
    def test_write_packet_stores_words(self):
        net, mem, sim = memory_on_network()
        net.interfaces[(0, 0)].send_packet(
            services.encode_write((1, 0), 0x10, [111, 222])
        )
        sim.run_until(lambda: mem.dump(0x10, 2) == [111, 222], max_cycles=5000)

    def test_read_packet_answers_read_return(self):
        net, mem, sim = memory_on_network()
        mem.load([5, 6, 7], base=0x20)
        ni = net.interfaces[(0, 0)]
        ni.send_packet(
            services.encode_read(
                (1, 0), encode_address(0, 0), 0x20, 3
            )
        )
        sim.run_until(lambda: ni.has_received(), max_cycles=5000)
        reply = services.decode(ni.pop_received())
        assert isinstance(reply, services.ReadReturn)
        assert reply.address == 0x20
        assert reply.words == [5, 6, 7]

    def test_back_to_back_operations(self):
        net, mem, sim = memory_on_network()
        ni = net.interfaces[(0, 0)]
        ni.send_packet(services.encode_write((1, 0), 0, [1]))
        ni.send_packet(services.encode_write((1, 0), 1, [2]))
        ni.send_packet(
            services.encode_read((1, 0), encode_address(0, 0), 0, 2)
        )
        sim.run_until(lambda: ni.has_received(), max_cycles=10_000)
        reply = services.decode(ni.pop_received())
        assert reply.words == [1, 2]

    def test_request_wraps_past_last_word(self):
        """A request that runs past word 1023 wraps to word 0, the
        10-bit address decode of a 1K-word memory."""
        net, mem, sim = memory_on_network()
        ni = net.interfaces[(0, 0)]
        ni.send_packet(services.encode_write((1, 0), 0x3FE, [1, 2, 3, 4]))
        ni.send_packet(
            services.encode_read((1, 0), encode_address(0, 0), 0x3FE, 4)
        )
        sim.run_until(lambda: ni.has_received(), max_cycles=10_000)
        reply = services.decode(ni.pop_received())
        assert (reply.address, reply.words) == (0x3FE, [1, 2, 3, 4])
        assert mem.dump(0x3FE, 2) + mem.dump(0, 2) == [1, 2, 3, 4]

    def test_unsupported_service_dropped(self):
        net, mem, sim = memory_on_network()
        net.interfaces[(0, 0)].send_packet(services.encode_activate((1, 0)))
        sim.step(500)
        assert len(mem.dropped_packets) == 1

    def test_processor_priority_delays_noc_write(self):
        """While the processor hammers the banks, NoC ops stall."""
        net, mem, sim = memory_on_network()
        net.interfaces[(0, 0)].send_packet(
            services.encode_write((1, 0), 0x10, [9] * 8)
        )
        # keep the processor port busy every cycle for a while
        for _ in range(300):
            mem.proc_read(0)
            sim.step()
        # NoC write blocked the whole time
        assert mem.dump(0x10, 8) != [9] * 8 or mem.noc_busy
        sim.step(500)
        assert mem.dump(0x10, 8) == [9] * 8

    def test_noc_busy_flag(self):
        net, mem, sim = memory_on_network()
        assert not mem.noc_busy
        net.interfaces[(0, 0)].send_packet(
            services.encode_read((1, 0), encode_address(0, 0), 0, 50)
        )
        sim.step(60)
        assert mem.noc_busy

    def test_proc_interface_immediate(self):
        mem = MemoryIp("m", (0, 0))
        mem.proc_write(3, 0xCAFE)
        assert mem.proc_read(3) == 0xCAFE

"""Tests for UART models, auto-baud and the Serial IP bridge."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import HermesNetwork, services
from repro.serial import AutoBaudUartRx, SerialIp, UartRx, UartTx, protocol
from repro.sim import Component, Simulator, Wire


def uart_pair(divisor_tx=4, divisor_rx=4, autobaud=False):
    line = Wire("line", reset=1, width=1)
    tx = UartTx("tx", line, divisor=divisor_tx)
    rx = (
        AutoBaudUartRx("rx", line)
        if autobaud
        else UartRx("rx", line, divisor=divisor_rx)
    )
    top = Component("top")
    top.add_child(tx)
    top.add_child(rx)
    sim = Simulator()
    sim.add(top)
    return sim, tx, rx


class TestUart:
    def test_byte_roundtrip(self):
        sim, tx, rx = uart_pair()
        tx.send_byte(0xA5)
        sim.step(80)
        assert list(rx.received) == [0xA5]
        assert rx.framing_errors == 0

    def test_multiple_bytes_in_order(self):
        sim, tx, rx = uart_pair()
        tx.send_bytes([1, 2, 3, 0xFF, 0x00])
        sim.step(400)
        assert list(rx.received) == [1, 2, 3, 0xFF, 0x00]

    def test_line_idles_high(self):
        sim, tx, rx = uart_pair()
        sim.step(10)
        assert tx.line.value == 1

    def test_various_divisors(self):
        for divisor in (2, 3, 8, 16):
            sim, tx, rx = uart_pair(divisor_tx=divisor, divisor_rx=divisor)
            tx.send_byte(0x5A)
            sim.step(divisor * 15)
            assert list(rx.received) == [0x5A], f"divisor {divisor}"

    def test_divisor_minimum_enforced(self):
        line = Wire("l", reset=1, width=1)
        with pytest.raises(ValueError):
            UartTx("t", line, divisor=1)
        with pytest.raises(ValueError):
            UartRx("r", line, divisor=0)

    def test_bad_byte_rejected(self):
        sim, tx, rx = uart_pair()
        with pytest.raises(ValueError):
            tx.send_byte(256)

    def test_busy_flag(self):
        sim, tx, rx = uart_pair()
        assert not tx.busy
        tx.send_byte(1)
        assert tx.busy
        sim.step(80)
        assert not tx.busy

    @given(data=st.lists(st.integers(0, 255), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_any_bytes_roundtrip(self, data):
        sim, tx, rx = uart_pair()
        tx.send_bytes(data)
        sim.step(len(data) * 50 + 50)
        assert list(rx.received) == data


class TestAutoBaud:
    @pytest.mark.parametrize("divisor", [2, 4, 7, 13])
    def test_learns_divisor_from_sync_byte(self, divisor):
        sim, tx, rx = uart_pair(divisor_tx=divisor, autobaud=True)
        tx.send_byte(protocol.SYNC_BYTE)
        sim.step(divisor * 15)
        assert rx.synced
        assert rx.divisor == divisor

    def test_receives_data_after_sync(self):
        sim, tx, rx = uart_pair(divisor_tx=6, autobaud=True)
        tx.send_bytes([protocol.SYNC_BYTE, 0x12, 0x34])
        sim.step(6 * 40)
        assert list(rx.received) == [0x12, 0x34]

    def test_sync_byte_not_delivered_as_data(self):
        sim, tx, rx = uart_pair(autobaud=True)
        tx.send_byte(protocol.SYNC_BYTE)
        sim.step(100)
        assert list(rx.received) == []

    def test_not_synced_before_sync_byte(self):
        sim, tx, rx = uart_pair(autobaud=True)
        sim.step(50)
        assert not rx.synced


class TestProtocolFrames:
    def test_read_frame_matches_figure9_example(self):
        """The user typed "00 01 01 00 20": read 1 word of P1's memory
        at 0020h."""
        assert protocol.frame_read(0x01, 0x0020, 1) == [0x00, 0x01, 0x01, 0x00, 0x20]

    def test_write_frame_layout(self):
        frame = protocol.frame_write(0x11, 0x0040, [0xBEEF])
        assert frame == [0x01, 0x11, 1, 0x00, 0x40, 0xBE, 0xEF]

    def test_activate_frame(self):
        assert protocol.frame_activate(0x10) == [0x02, 0x10]

    def test_scanf_return_frame(self):
        assert protocol.frame_scanf_return(0x01, 0x1234) == [0x03, 0x01, 0x12, 0x34]

    def test_host_frame_length_incremental(self):
        assert protocol.host_frame_length([]) is None
        assert protocol.host_frame_length([0x01]) is None  # write: need count
        assert protocol.host_frame_length([0x01, 0x11, 2]) == 9
        assert protocol.host_frame_length([0x00]) == 5

    def test_board_frame_length_incremental(self):
        assert protocol.board_frame_length([0x10, 0, 0, 2]) == 8
        assert protocol.board_frame_length([0x11, 1]) is None
        assert protocol.board_frame_length([0x12]) == 2

    def test_unknown_bytes_raise(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.host_frame_length([0x99])
        with pytest.raises(protocol.ProtocolError):
            protocol.board_frame_length([0x99])

    def test_parse_board_frames(self):
        rr = protocol.parse_board_frame([0x10, 0x00, 0x20, 1, 0xAB, 0xCD])
        assert rr.address == 0x20 and rr.words == [0xABCD]
        pf = protocol.parse_board_frame([0x11, 2, 1, 0x00, 0x2A])
        assert pf.proc == 2 and pf.words == [42]
        sf = protocol.parse_board_frame([0x12, 1])
        assert sf.proc == 1

    def test_count_bounds(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_read(0, 0, 0)
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_write(0, 0, [])

    def test_counts_the_serial_ip_cannot_forward(self):
        """A READ or WRITE frame with no words, or a WRITE with more
        words than one NoC write packet carries, is malformed."""
        most = protocol.MAX_WRITE_WORDS
        assert len(protocol.frame_write(0, 0, [0] * most)) == 5 + 2 * most
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_write(0, 0, [0] * (most + 1))
        for frame in ([0x00, 0x10, 0], [0x01, 0x10, 0], [0x01, 0x10, most + 1]):
            with pytest.raises(protocol.ProtocolError, match="count"):
                protocol.host_frame_length(frame)


def serial_on_network():
    """Serial IP at (0, 0) of a 2x1 mesh, host lines exposed."""
    net = HermesNetwork(2, 1)
    ni = net.interfaces.pop((0, 0))
    net._children.remove(ni)
    rxd = Wire("rxd", reset=1, width=1)
    txd = Wire("txd", reset=1, width=1)
    serial = SerialIp("serial", (0, 0), rxd=rxd, txd=txd, stats=net.stats)
    into, out = net.mesh.local_channels((0, 0))
    serial.ni.attach(to_router=into, from_router=out)
    net.add_child(serial)
    host_tx = UartTx("host_tx", rxd, divisor=4)
    host_rx = UartRx("host_rx", txd, divisor=4)
    net.add_child(host_tx)
    net.add_child(host_rx)
    sim = net.make_simulator()
    return net, serial, host_tx, host_rx, sim


class TestSerialIp:
    def test_sync_then_command_becomes_packet(self):
        net, serial, host_tx, host_rx, sim = serial_on_network()
        other = net.interfaces[(1, 0)]
        host_tx.send_byte(protocol.SYNC_BYTE)
        host_tx.send_bytes(protocol.frame_write(0x10, 0x30, [0xCAFE]))
        sim.run_until(lambda: other.has_received(), max_cycles=10_000)
        message = services.decode(other.pop_received())
        assert isinstance(message, services.WriteRequest)
        assert message.address == 0x30
        assert message.words == [0xCAFE]

    def test_read_command_carries_reply_address(self):
        net, serial, host_tx, host_rx, sim = serial_on_network()
        other = net.interfaces[(1, 0)]
        host_tx.send_byte(protocol.SYNC_BYTE)
        host_tx.send_bytes(protocol.frame_read(0x10, 0x20, 2))
        sim.run_until(lambda: other.has_received(), max_cycles=10_000)
        message = services.decode(other.pop_received())
        assert message.reply_to == 0x00  # the serial IP's own flit

    def test_noc_printf_reaches_host(self):
        net, serial, host_tx, host_rx, sim = serial_on_network()
        host_tx.send_byte(protocol.SYNC_BYTE)
        sim.run_until(lambda: serial.synced, max_cycles=1000)
        net.interfaces[(1, 0)].send_packet(
            services.encode_printf((0, 0), proc=1, words=[0x002A])
        )
        sim.run_until(lambda: len(host_rx.received) >= 5, max_cycles=10_000)
        frame = [host_rx.received.popleft() for _ in range(5)]
        parsed = protocol.parse_board_frame(frame)
        assert parsed.proc == 1
        assert parsed.words == [42]

    def test_unsupported_packet_dropped(self):
        net, serial, host_tx, host_rx, sim = serial_on_network()
        net.interfaces[(1, 0)].send_packet(
            services.encode_notify((0, 0), source=1)
        )
        sim.step(1000)
        assert len(serial.dropped_packets) == 1

    @pytest.mark.parametrize(
        "command", [protocol.HostCommand.READ, protocol.HostCommand.WRITE]
    )
    def test_zero_count_frame_is_a_protocol_error(self, command):
        net, serial, host_tx, host_rx, sim = serial_on_network()
        host_tx.send_byte(protocol.SYNC_BYTE)
        host_tx.send_bytes([command, 0x10, 0, 0, 0x10])
        with pytest.raises(protocol.ProtocolError, match="count 0"):
            sim.step(2000)

    def test_activate_command_forwarded(self):
        net, serial, host_tx, host_rx, sim = serial_on_network()
        other = net.interfaces[(1, 0)]
        host_tx.send_byte(protocol.SYNC_BYTE)
        host_tx.send_bytes(protocol.frame_activate(0x10))
        sim.run_until(lambda: other.has_received(), max_cycles=10_000)
        assert isinstance(
            services.decode(other.pop_received()), services.Activate
        )

"""Fault-injection tests for the serial path: glitches, framing errors,
mid-frame interruptions, and the UART pair under the quiescent kernel
against strict lock-step."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import services
from repro.serial import AutoBaudUartRx, SerialIp, UartRx, UartTx, protocol
from repro.sim import SLEEP, Component, Simulator, Wire


class GlitchyLine(Component):
    """Forwards a source wire onto a destination wire, with scheduled
    single-cycle inversions (line noise)."""

    def __init__(self, src: Wire, dst: Wire, glitch_cycles=()):
        super().__init__("glitch")
        self.src = src
        self.dst = dst
        self.adopt_wires([dst])
        self.glitch_cycles = set(glitch_cycles)

    def eval(self, cycle):
        value = self.src.read(cycle)
        if cycle in self.glitch_cycles:
            value ^= 1
        self.dst.drive(value, cycle)


def noisy_pair(glitch_cycles, divisor=4):
    raw = Wire("raw", reset=1, width=1)
    line = Wire("line", reset=1, width=1)
    tx = UartTx("tx", raw, divisor=divisor)
    glitch = GlitchyLine(raw, line, glitch_cycles)
    rx = UartRx("rx", line, divisor=divisor)
    top = Component("top")
    for c in (tx, glitch, rx):
        top.add_child(c)
    sim = Simulator()
    sim.add(top)
    return sim, tx, rx


class TestFramingErrors:
    def test_clean_line_no_errors(self):
        sim, tx, rx = noisy_pair([])
        tx.send_bytes([0x12, 0x34])
        sim.step(200)
        assert rx.framing_errors == 0
        assert list(rx.received) == [0x12, 0x34]

    def test_glitched_stop_bit_is_framing_error(self):
        sim, tx, rx = noisy_pair([])
        tx.send_byte(0xFF)
        # stop bit of the frame spans cycles ~38-41 (divisor 4, start at 2);
        # glitch right at its sample point
        sim2, tx2, rx2 = noisy_pair(range(38, 42))
        tx2.send_byte(0xFF)
        sim2.step(100)
        assert rx2.framing_errors == 1
        assert list(rx2.received) == []

    def test_recovers_after_corrupted_frame(self):
        """A corrupted frame is dropped; subsequent frames decode."""
        sim, tx, rx = noisy_pair(range(38, 42))
        tx.send_bytes([0xFF, 0xA5])
        sim.step(300)
        assert rx.framing_errors == 1
        assert list(rx.received) == [0xA5]

    def test_false_start_bit_rejected(self):
        """A glitch on the idle line must not produce a byte."""
        sim, tx, rx = noisy_pair([10])
        sim.step(100)
        assert list(rx.received) == []
        assert rx.framing_errors == 0

    def test_data_bit_corruption_changes_byte_not_framing(self):
        # corrupt one data bit mid-frame: wrong byte, valid framing
        sim, tx, rx = noisy_pair(range(8, 12))  # bit 1's span
        tx.send_byte(0x00)
        sim.step(100)
        assert rx.framing_errors == 0
        assert list(rx.received) == [0x02]


class TestAutoBaudRobustness:
    def test_autobaud_unaffected_by_later_traffic_rate(self):
        """Once locked, the divisor stays locked."""
        raw = Wire("raw", reset=1, width=1)
        tx = UartTx("tx", raw, divisor=6)
        rx = AutoBaudUartRx("rx", raw)
        top = Component("top")
        top.add_child(tx)
        top.add_child(rx)
        sim = Simulator()
        sim.add(top)
        tx.send_byte(protocol.SYNC_BYTE)
        sim.run_until(lambda: rx.synced, max_cycles=1000)
        locked = rx.divisor
        tx.send_bytes([0x01, 0xFE])
        sim.step(400)
        assert rx.divisor == locked
        assert list(rx.received) == [0x01, 0xFE]

    def test_sync_works_after_long_idle(self):
        raw = Wire("raw", reset=1, width=1)
        tx = UartTx("tx", raw, divisor=5)
        rx = AutoBaudUartRx("rx", raw)
        top = Component("top")
        top.add_child(tx)
        top.add_child(rx)
        sim = Simulator()
        sim.add(top)
        sim.step(500)  # long idle before the host shows up
        tx.send_byte(protocol.SYNC_BYTE)
        sim.run_until(lambda: rx.synced, max_cycles=1000)
        assert rx.divisor == 5


# ---------------------------------------------------------------------------
# The UART pair sleeps from line edge to line edge, exactly
# ---------------------------------------------------------------------------


class EdgeRouter(Component):
    """A kernel unit around a receiver, as the Serial IP and the host
    are: the receiver logs a mid-frame edge instead of waking the unit.
    At each cycle in *busy* the unit is awake anyway, as an IP is while
    another member works, so the receiver is also evaluated with edges
    in its log."""

    def __init__(self, rx, busy=()):
        super().__init__("router")
        self.rx = rx
        self.busy = sorted(busy)
        self.add_child(rx)

    def eval(self, cycle):
        due = self.rx.eval(cycle) if not self.rx.idle else SLEEP
        if due is None:
            return None
        return min([due] + [c for c in self.busy if c > cycle])


def _link(strict, tx_divisor, rx_divisor, glitches, busy=None):
    """``UartTx``, then a ``GlitchyLine`` when *glitches* is not None,
    then a ``UartRx`` at *rx_divisor*, or an ``AutoBaudUartRx`` when it
    is None; inside an ``EdgeRouter`` awake at the cycles in *busy*
    unless that is None."""
    raw = Wire("raw", reset=1, width=1)
    tx = UartTx("tx", raw, divisor=tx_divisor)
    parts, line = [tx], raw
    if glitches is not None:
        line = Wire("line", reset=1, width=1)
        parts.append(GlitchyLine(raw, line, glitches))
    rx = (
        AutoBaudUartRx("rx", line)
        if rx_divisor is None
        else UartRx("rx", line, divisor=rx_divisor)
    )
    top = Component("top")
    for part in parts + [rx if busy is None else EdgeRouter(rx, busy)]:
        top.add_child(part)
    sim = Simulator(strict_lockstep=strict)
    sim.add(top)
    return sim, tx, rx, line


def _view(tx, rx, line):
    """What a parent reads between cycles; it drains the received
    bytes, as the Serial IP and the host do at their evals."""
    view = (
        tx.line.value, line.value, tx.busy, list(rx.received),
        rx.framing_errors,
    )
    rx.received.clear()
    return view


def _state(uart):
    """Everything a UART holds except its last-eval stamp, which lags
    while it sleeps."""
    state = uart.snapshot_state()
    del state["cycle"]
    return state


def _credited(uart, *to_cycles):
    """The state a copy of *uart* reaches after ``credit`` of each of
    *to_cycles* in turn."""
    twin = copy.copy(uart)
    twin.restore_state(uart.snapshot_state())
    if isinstance(uart, UartRx):
        twin._edges = list(uart._edges)  # a restore drops the edge log
    for to_cycle in to_cycles:
        twin.credit(to_cycle)
    return _state(twin)


@st.composite
def serial_links(draw):
    tx_divisor = draw(st.integers(2, 9))
    autobaud = draw(st.booleans())
    rx_divisor = None
    if not autobaud:
        mismatched = draw(st.booleans())
        rx_divisor = draw(st.integers(2, 9)) if mismatched else tx_divisor
    data = draw(st.lists(st.integers(0, 0xFF), min_size=1, max_size=6))
    if autobaud and draw(st.booleans()):
        data = [protocol.SYNC_BYTE] + data
    frame = 10 * tx_divisor
    horizon = frame * (len(data) + 2)
    sends = sorted(draw(st.integers(0, horizon)) for _ in data)
    glitches = None
    if draw(st.booleans()):
        glitches = draw(st.frozensets(st.integers(0, horizon), max_size=6))
    settle_every = draw(st.none() | st.integers(1, 12))
    busy = None
    if draw(st.booleans()):
        busy = draw(st.frozensets(st.integers(0, horizon), max_size=12))
    return (
        tx_divisor,
        rx_divisor,
        list(zip(sends, data)),
        glitches,
        settle_every,
        horizon + 2 * frame,
        busy,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(serial_links())
def test_uart_pair_matches_lockstep_every_cycle(link):
    """At every cycle the quiescent kernel shows what lock-step shows:
    the line, ``tx.busy``, each received byte and the framing errors;
    and every span a UART sleeps credits the same in one piece or two
    (``credit(a)`` then ``credit(b)`` equals ``credit(b)``).  A receiver
    inside an ``EdgeRouter`` replays its logged edges."""
    tx_divisor, rx_divisor, sends, glitches, settle_every, cycles, busy = link
    ref = _link(True, tx_divisor, rx_divisor, glitches, busy)
    got = _link(False, tx_divisor, rx_divisor, glitches, busy)
    sim = got[0]
    todo = list(sends)
    for cycle in range(cycles):
        while todo and todo[0][0] == cycle:
            byte = todo.pop(0)[1]
            ref[1].send_byte(byte)
            got[1].send_byte(byte)
        assert _view(*got[1:]) == _view(*ref[1:]), f"cycle {cycle}"
        for uart in (got[1], got[2]):
            unit = uart._sched or uart  # before elaboration: itself
            if not unit._awake and unit._slept_since is not None:
                span = sim.cycle - unit._slept_since
                if span > 1:
                    a = unit._slept_since + 1 + cycle % (span - 1)
                    assert _credited(uart, a, sim.cycle) == _credited(
                        uart, sim.cycle
                    ), f"{uart.name} span to {a}, {sim.cycle} at cycle {cycle}"
        if settle_every and cycle % settle_every == 0:
            sim.settle()
            assert _state(got[1]) == _state(ref[1]), f"cycle {cycle}"
            assert _state(got[2]) == _state(ref[2]), f"cycle {cycle}"
        ref[0].step(1)
        sim.step(1)
    sim.settle()
    assert _state(got[1]) == _state(ref[1])
    assert _state(got[2]) == _state(ref[2])


# ---------------------------------------------------------------------------
# Untrusted host bytes: only ProtocolError escapes frame assembly
# ---------------------------------------------------------------------------


@st.composite
def host_bytes(draw):
    """Host-to-board bytes: frames of every command with drawn fields
    (any READ or WRITE word count, with as many data words as a WRITE
    count says) and runs of random bytes, then maybe one byte replaced
    and the tail cut."""
    byte = st.integers(0, 0xFF)
    data = []
    for _ in range(draw(st.integers(0, 4))):
        command = draw(st.sampled_from([*protocol.HostCommand, None]))
        if command is None:
            data += draw(st.lists(byte, max_size=12))
            continue
        fields = {
            protocol.HostCommand.READ: 4,
            protocol.HostCommand.WRITE: 4,
            protocol.HostCommand.ACTIVATE: 1,
            protocol.HostCommand.SCANF_RETURN: 3,
        }[command]
        frame = [command] + draw(st.lists(byte, min_size=fields, max_size=fields))
        if command == protocol.HostCommand.WRITE:
            n = 2 * frame[2]
            frame += draw(st.lists(byte, min_size=n, max_size=n))
        data += frame
    if data and draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(byte)
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(host_bytes(), st.integers(1, 8))
def test_only_protocol_errors_escape_host_frame_assembly(data, chunk):
    """The Serial IP assembles whatever bytes its receiver delivers, a
    few per eval: a malformed frame raises ``ProtocolError`` and nothing
    else, and every frame it accepts leaves as one service packet."""
    ip = SerialIp(
        "serial",
        (0, 0),
        rxd=Wire("rxd", reset=1, width=1),
        txd=Wire("txd", reset=1, width=1),
    )
    try:
        for cycle, at in enumerate(range(0, len(data), chunk)):
            ip.uart_rx.received.extend(data[at : at + chunk])
            ip.eval(cycle)
    except protocol.ProtocolError:
        return
    packets = list(ip.ni._tx_queue)  # no router attached: nothing leaves
    assert len(packets) == ip.frames_processed
    for packet in packets:
        services.decode(packet)

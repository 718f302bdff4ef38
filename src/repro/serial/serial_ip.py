"""The Serial IP core (paper Section 2.2).

"The basic function of the Serial IP is to assemble and disassemble
packets.  When information comes from the host computer, the Serial IP
creates a valid NoC packet.  When a packet is received from the NoC it
must be disassembled, and sent serially to the host computer."

The bridge is one kernel unit.  The fabric marks its network interface
due when the router steps one of its links and wakes the bridge for
the next cycle (:meth:`~repro.noc.ni.NetworkInterface.mark`).  The
receiver is handed each edge of the rxd line the same way: it logs one
mid-frame, and otherwise is due and wakes the bridge for the next cycle
(:meth:`~repro.serial.uart.UartRx.edge`).  An eval evaluates only the
members that are due: the interface when marked or handed a packet, and
each UART unless it is idle.  It returns the earliest of its UARTs'
dues, or ``None`` while the interface is due; the default ``credit``
hands a skipped span to the UARTs.  Under strict lock-step the
interface is evaluated every cycle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..noc import services
from ..noc.flit import decode_address, encode_address, split_word
from ..noc.ni import NetworkInterface
from ..noc.packet import Packet
from ..sim import SLEEP, Component, Wire
from . import protocol
from .uart import AutoBaudUartRx, UartTx, _ints


class SerialIp(Component):
    """RS-232 <-> Hermes bridge at a router's Local port.

    Parameters
    ----------
    rxd:
        1-bit line carrying host->board traffic (create with ``reset=1``).
    txd:
        1-bit line carrying board->host traffic (owned and driven here).
    """

    def __init__(
        self,
        name: str,
        address: Tuple[int, int],
        rxd: Wire,
        txd: Wire,
        tx_divisor: int = 4,
        stats=None,
    ):
        super().__init__(name)
        self.noc_address = address
        self.uart_rx = AutoBaudUartRx(f"{name}.rx", rxd)
        self.uart_tx = UartTx(f"{name}.tx", txd, divisor=tx_divisor)
        self.ni = NetworkInterface(f"{name}.ni", address, stats=stats)
        self.add_child(self.uart_rx)
        self.add_child(self.uart_tx)
        self.add_child(self.ni)
        self._frame: List[int] = []
        self.frames_processed = 0
        self.dropped_packets: List[Packet] = []
        #: optional TelemetrySink; hooks are behind one None-check each
        self.sink = None
        self._now = 0
        #: this bridge is its own kernel unit (not under strict lock-step)
        self._route = False

    def attach_telemetry(self, sink) -> None:
        """Register this IP (and its NI) as tracks; enable hooks."""
        self.sink = sink
        sink.track(self.name, process="serial")
        sink.track(self.ni.name, process="noc")
        self.ni.sink = sink

    @property
    def synced(self) -> bool:
        """True once the 0x55 auto-baud byte has been received."""
        return self.uart_rx.synced

    @property
    def busy(self) -> bool:
        return (
            bool(self._frame)
            or self.uart_tx.busy
            or self.ni.tx_busy
            or bool(self.uart_rx.received)
        )

    def eval(self, cycle: int) -> Optional[float]:
        if self.sink is not None:
            self._now = cycle
        # inlined child walk (rx, tx, ni are the bridge's only children),
        # skipping the members with nothing to do; each due is SLEEP for
        # an idle member
        rx, tx, ni = self.uart_rx, self.uart_tx, self.ni
        rx_due = tx_due = SLEEP
        if not rx.idle:
            synced = rx.synced
            rx_due = rx.eval(cycle)
            if rx.synced and not synced:
                # Match the board UART transmit rate to the learned baud
                # rate, once, at the eval that locks it (the transmitter
                # is current).
                tx.divisor = rx.divisor
        if not tx.idle:
            tx_due = tx.eval(cycle)
        if ni.due <= cycle or ni._tx_queue:
            ni.eval(cycle)
            if not self._route:
                ni.due = cycle + 1
        if rx.received:
            self._assemble_host_frames()
        if ni.received:
            self._disassemble_noc_packets()
        # a frame queued for the host after the transmitter's eval (an
        # earlier due is a harmless early wake), or a packet for the NI
        if (
            ni.due != SLEEP
            or ni._tx_queue
            or rx_due is None
            or tx_due is None
            or (tx_due == SLEEP and not tx.idle)
        ):
            return None
        return min(rx_due, tx_due)

    def elaborated(self) -> None:
        self._route = self._sched is self

    def reset(self) -> None:
        super().reset()
        self._frame = []
        self.frames_processed = 0
        self.dropped_packets = []

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "frame": list(self._frame),
            "frames_processed": self.frames_processed,
            "dropped": [p.to_state() for p in self.dropped_packets],
            "now": self._now,
        }

    def restore_state(self, state: dict) -> None:
        self._frame = _ints(state["frame"], 0, 0xFF, "frame")
        (self.frames_processed,) = _ints(
            [state["frames_processed"]], 0, float("inf"), "frames_processed"
        )
        self.dropped_packets = [
            Packet.from_state(p) for p in state["dropped"]
        ]
        self._now = state["now"]

    # -- host -> NoC -----------------------------------------------------------

    def _assemble_host_frames(self) -> None:
        while self.uart_rx.received:
            self._frame.append(self.uart_rx.received.popleft())
            length = protocol.host_frame_length(self._frame)
            if length is not None and len(self._frame) >= length:
                frame, self._frame = self._frame[:length], self._frame[length:]
                self._dispatch_host_frame(frame)

    def _dispatch_host_frame(self, frame: List[int]) -> None:
        cmd = frame[0]
        target = decode_address(frame[1])
        own_flit = encode_address(*self.noc_address)
        if cmd == protocol.HostCommand.READ:
            count = frame[2]
            address = (frame[3] << 8) | frame[4]
            packet = services.encode_read(target, own_flit, address, count)
        elif cmd == protocol.HostCommand.WRITE:
            count = frame[2]
            address = (frame[3] << 8) | frame[4]
            words = [
                (frame[5 + 2 * i] << 8) | frame[6 + 2 * i] for i in range(count)
            ]
            packet = services.encode_write(target, address, words)
        elif cmd == protocol.HostCommand.ACTIVATE:
            packet = services.encode_activate(target)
        elif cmd == protocol.HostCommand.SCANF_RETURN:
            value = (frame[2] << 8) | frame[3]
            packet = services.encode_scanf_return(target, value)
        else:  # pragma: no cover - host_frame_length already rejects
            raise protocol.ProtocolError(f"unknown command {cmd:#04x}")
        self.ni.send_packet(packet)
        self.frames_processed += 1
        if self.sink is not None:
            self.sink.instant(
                self.name,
                "host_frame",
                self._now,
                command=protocol.HostCommand(cmd).name,
                target=f"{target[0]},{target[1]}",
            )

    # -- NoC -> host -------------------------------------------------------------

    def _disassemble_noc_packets(self) -> None:
        while self.ni.has_received():
            packet = self.ni.pop_received()
            try:
                message = services.decode(packet)
            except services.ServiceError:
                self.dropped_packets.append(packet)
                continue
            if isinstance(message, services.ReadReturn):
                hi, lo = split_word(message.address)
                frame = [protocol.BoardReply.READ_RETURN, hi, lo, len(message.words)]
                for word in message.words:
                    whi, wlo = split_word(word)
                    frame.extend((whi, wlo))
            elif isinstance(message, services.Printf):
                frame = [protocol.BoardReply.PRINTF, message.proc, len(message.words)]
                for word in message.words:
                    whi, wlo = split_word(word)
                    frame.extend((whi, wlo))
            elif isinstance(message, services.Scanf):
                frame = [protocol.BoardReply.SCANF, message.proc]
            else:
                self.dropped_packets.append(packet)
                continue
            self.uart_tx.send_bytes(frame)
            if self.sink is not None:
                self.sink.instant(
                    self.name,
                    "board_reply",
                    self._now,
                    reply=protocol.BoardReply(frame[0]).name,
                )

"""Bit-level RS-232 UART models.

Frames are the classic 8N1: one start bit (low), eight data bits LSB
first, one stop bit (high); the line idles high.  The bit period is
``divisor`` clock cycles, so different host/board clock ratios can be
exercised — which is why MultiNoC needs the 0x55 synchronisation byte
(see :class:`AutoBaudUartRx`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..sim import Component, Wire

#: Bits per 8N1 frame: start + 8 data + stop.
FRAME_BITS = 10


class UartTx(Component):
    """Serialises queued bytes onto a 1-bit line."""

    def __init__(self, name: str, line: Wire, divisor: int = 4):
        super().__init__(name)
        if divisor < 2:
            raise ValueError("UART divisor must be at least 2 cycles per bit")
        self.line = line
        self.divisor = self._reset_divisor = divisor
        self.adopt_wires([line])
        self.queue: Deque[int] = deque()
        self._bits: list = []
        self._bit_index = 0
        self._phase = 0
        self._cycle = 0

    def send_byte(self, byte: int) -> None:
        if not 0 <= byte <= 0xFF:
            raise ValueError(f"byte {byte!r} out of range")
        self.queue.append(byte)
        self.wake()

    def send_bytes(self, data) -> None:
        for b in data:
            self.send_byte(b)

    @property
    def busy(self) -> bool:
        return bool(self.queue) or bool(self._bits)

    def eval(self, cycle: int) -> None:
        self._cycle = cycle
        if not self._bits:
            if self.queue:
                byte = self.queue.popleft()
                data_bits = [(byte >> i) & 1 for i in range(8)]
                self._bits = [0] + data_bits + [1]
                self._bit_index = 0
                self._phase = 0
            else:
                self.line.drive(1)  # idle high
                return
        self.line.drive(self._bits[self._bit_index])
        self._phase += 1
        if self._phase >= self.divisor:
            self._phase = 0
            self._bit_index += 1
            if self._bit_index >= len(self._bits):
                self._bits = []

    def is_quiescent(self) -> bool:
        """Sleep whenever the next eval cannot change the line.

        Mid-frame the line only changes at bit boundaries: with the
        current bit worth ``divisor - phase`` more identical drives, the
        transmitter books a wake for the first eval presenting the next
        bit and skips the pure phase-counting evals in between (they are
        re-credited by :meth:`on_wake`).  Fully idle, it sleeps until
        :meth:`send_byte` wakes it.
        """
        if self._bits:
            p = self._phase
            if p == 0:
                return False  # a new bit value goes out next eval
            if not self.queue and self._bit_index == len(self._bits) - 1:
                # Final bit of the final frame: stay awake so ``busy``
                # flips false at the exact cycle lock-step would clear
                # it — host drain predicates probe it between cycles.
                return False
            self.wake_at(self._cycle + self.divisor - p + 1)
            return True
        return not self.queue and self.line.value == 1

    def on_wake(self, skipped_cycles: int) -> None:
        """Re-credit skipped mid-frame evals: each was exactly one phase
        increment driving the unchanged current bit."""
        if skipped_cycles <= 0 or not self._bits:
            return
        self._phase += skipped_cycles
        if self._phase >= self.divisor:
            # the skipped span covers at most one bit boundary (the wake
            # lands on the eval right after it)
            self._phase -= self.divisor
            self._bit_index += 1
            if self._bit_index >= len(self._bits):
                self._bits = []

    def reset(self) -> None:
        # The line wire must be created with reset=1 (RS-232 idles high).
        super().reset()
        self.queue.clear()
        self._bits = []
        self._bit_index = 0
        self._phase = 0
        self._cycle = 0
        self.divisor = self._reset_divisor

    def snapshot_state(self) -> dict:
        return {
            "queue": list(self.queue),
            "bits": list(self._bits),
            "bit_index": self._bit_index,
            "phase": self._phase,
            "cycle": self._cycle,
            # learned at runtime when slaved to an auto-baud receiver
            "divisor": self.divisor,
        }

    def restore_state(self, state: dict) -> None:
        self.queue = deque(state["queue"])
        self._bits = list(state["bits"])
        self._bit_index = state["bit_index"]
        self._phase = state["phase"]
        self._cycle = state["cycle"]
        self.divisor = state["divisor"]


class UartRx(Component):
    """Deserialises bytes from a 1-bit line at a known divisor."""

    def __init__(self, name: str, line: Wire, divisor: int = 4):
        super().__init__(name)
        if divisor < 2:
            raise ValueError("UART divisor must be at least 2 cycles per bit")
        self.line = line
        self.divisor = self._reset_divisor = divisor
        # The receiver wakes on any committed change of the serial line
        # (a start-bit or sync edge); while sampling it stays awake.
        self.watch_wires([line])
        self.received: Deque[int] = deque()
        self.framing_errors = 0
        self._sampling = False
        self._count = 0
        self._bits: list = []
        self._cycle = 0

    def eval(self, cycle: int) -> None:
        self._cycle = cycle
        level = self.line.value
        if not self._sampling:
            if level == 0:  # start-bit edge
                self._sampling = True
                self._count = 0
                self._bits = []
            return
        self._count += 1
        # Sample each bit at its mid-point: start bit at divisor/2, data
        # bit k at divisor/2 + (k+1)*divisor ...
        offset = self._count - self.divisor // 2
        if offset >= 0 and offset % self.divisor == 0:
            bit_index = offset // self.divisor
            if bit_index == 0:
                if level != 0:  # glitch, not a real start bit
                    self._sampling = False
                return
            if bit_index <= 8:
                self._bits.append(level)
                return
            # stop bit
            if level != 1:
                self.framing_errors += 1
            else:
                byte = 0
                for i, bit in enumerate(self._bits):
                    byte |= bit << i
                self.received.append(byte)
            self._sampling = False

    def is_quiescent(self) -> bool:
        """Sleep whenever the next eval cannot act.

        While framing, evals between bit sample points only advance the
        cycle counter — the receiver books a wake for the next mid-bit
        sample (skipped counts are re-credited by :meth:`on_wake`) and
        sleeps; a line edge wakes it early through the watched wire,
        which is harmless.  Outside a frame it sleeps until the line
        drops (start bit) or a buffered byte is drained by its parent.
        """
        if self._sampling:
            off = self._count - self.divisor // 2
            k = -off if off < 0 else self.divisor - off % self.divisor
            if k < 2:
                return False
            self.wake_at(self._cycle + k)
            return True
        return not self.received and self.line.value != 0

    def on_wake(self, skipped_cycles: int) -> None:
        """Re-credit skipped mid-frame evals: each was exactly one
        ``_count`` increment with no sample point reached."""
        if skipped_cycles > 0 and self._sampling:
            self._count += skipped_cycles

    def pop_byte(self) -> Optional[int]:
        return self.received.popleft() if self.received else None

    def reset(self) -> None:
        super().reset()
        self.received.clear()
        self.framing_errors = 0
        self._sampling = False
        self._count = 0
        self._bits = []
        self._cycle = 0
        self.divisor = self._reset_divisor

    def snapshot_state(self) -> dict:
        return {
            "received": list(self.received),
            "framing_errors": self.framing_errors,
            "sampling": self._sampling,
            "count": self._count,
            "bits": list(self._bits),
            "cycle": self._cycle,
            "divisor": self.divisor,
        }

    def restore_state(self, state: dict) -> None:
        self.received = deque(state["received"])
        self.framing_errors = state["framing_errors"]
        self._sampling = state["sampling"]
        self._count = state["count"]
        self._bits = list(state["bits"])
        self._cycle = state["cycle"]
        self.divisor = state["divisor"]


class AutoBaudUartRx(UartRx):
    """UART receiver that learns its divisor from the 0x55 sync byte.

    "The MultiNoC system must receive from the Serial software the host
    computer baud rate ... achieved transmitting the value 55H" (paper
    Section 4).  0x55 sent LSB-first toggles the line on every bit, so
    the shortest observed edge-to-edge interval *is* the bit period.
    """

    SYNC_EDGES = 9  # start + 8 alternating data bits give 9+ edges

    def __init__(self, name: str, line: Wire):
        super().__init__(name, line, divisor=2)
        self.synced = False
        self._last_level = 1
        self._last_edge_cycle: Optional[int] = None
        self._intervals: list = []

    def is_quiescent(self) -> bool:
        """Pre-sync the receiver only acts on line *edges*, so it can
        sleep whenever the level matches the last one seen — the watched
        line wakes it exactly at each edge, keeping the measured
        intervals identical to lock-step evaluation."""
        if self.synced:
            return super().is_quiescent()
        return self.line.value == self._last_level and not self.received

    def eval(self, cycle: int) -> None:
        if self.synced:
            super().eval(cycle)
            return
        self._cycle = cycle
        level = self.line.value
        if level != self._last_level:
            if self._last_edge_cycle is not None:
                self._intervals.append(cycle - self._last_edge_cycle)
            self._last_edge_cycle = cycle
            self._last_level = level
            if len(self._intervals) >= self.SYNC_EDGES:
                self.divisor = max(2, min(self._intervals))
                self.synced = True
                # The sync byte itself is consumed by synchronisation; the
                # final stop bit leaves the line idle, ready for framing.

    def reset(self) -> None:
        super().reset()
        self.synced = False
        self._last_level = 1
        self._last_edge_cycle = None
        self._intervals = []

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state.update(
            synced=self.synced,
            last_level=self._last_level,
            last_edge_cycle=self._last_edge_cycle,
            intervals=list(self._intervals),
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.synced = state["synced"]
        self._last_level = state["last_level"]
        self._last_edge_cycle = state["last_edge_cycle"]
        self._intervals = list(state["intervals"])

"""Bit-level RS-232 UART models.

Frames are the classic 8N1: one start bit (low), eight data bits LSB
first, one stop bit (high); the line idles high.  The bit period is
``divisor`` clock cycles, so different host/board clock ratios can be
exercised — which is why MultiNoC needs the 0x55 synchronisation byte
(see :class:`AutoBaudUartRx`).

Both ends evaluate the line bit by bit, but under the quiescent kernel
they sleep from one line edge to the next: a transmitter's eval returns
the cycle where its next eval drives a different level (or ends the
final frame), and a framing receiver's the cycle of the stop-bit sample.
``credit`` accounts the skipped evals exactly, so the waveform, ``busy``
and every received byte land on their lock-step cycles.

The receiver is its line's reader (:class:`~repro.sim.wire.Wire`): each
drive that changes the line hands it the edge (:meth:`UartRx.edge`),
with the cycle the edge is first seen.  A framing receiver logs the
edge and sleeps through the whole frame; ``credit`` then replays the
skipped start-bit and data-bit samples piecewise, each with the level
in force at its sample point, so only the stop-bit sample is a real
eval.  Any other edge makes the receiver due and wakes its kernel unit
for that cycle, whether the receiver is a unit itself or a member of
one (the Serial IP and the host, which also skip the eval of an idle
UART: :meth:`UartTx.idle`, :meth:`UartRx.idle`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..sim import SLEEP, Component, Wire

#: Bits per 8N1 frame: start + 8 data + stop.
FRAME_BITS = 10

#: the line levels of each byte's frame: start, data LSB first, stop
_FRAMES = tuple(
    (0, *((byte >> i) & 1 for i in range(8)), 1) for byte in range(256)
)


def _ints(values, lo: int, hi: float, key: str, lengths=None) -> list:
    """Restored *values* as a list of ints in ``lo..hi``, of one of
    *lengths* if given; ``ValueError`` for anything a UART cannot run."""
    values = list(values)
    if not all(isinstance(v, int) and lo <= v <= hi for v in values):
        raise ValueError(f"{key} holds a value outside {lo}..{hi}")
    if lengths is not None and len(values) not in lengths:
        raise ValueError(f"{key} has {len(values)} entries")
    return values


def _bool(value, key: str) -> bool:
    """A restored flag; ``ValueError`` for anything but a bool."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} holds {value!r}, not a bool")
    return value


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
        self._bits: tuple = ()
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
        return bool(self.queue or self._bits)

    @property
    def idle(self) -> bool:
        """True when an eval now would only re-drive the idle high
        line: nothing is being sent or queued."""
        return not self._bits and not self.queue and self.line.value == 1

    def eval(self, cycle: int) -> Optional[float]:
        """Drive the current bit, and return the first eval that drives
        a different level: a later bit of the frame, or the start bit of
        the next queued frame.  After the final frame it returns the
        eval that ends the stop bit instead, so ``busy`` flips false at
        the cycle lock-step would clear it (host drain predicates probe
        it between cycles).  Fully idle, it sleeps until
        :meth:`send_byte` wakes it."""
        self._cycle = cycle
        bits = self._bits
        if not bits:
            if not self.queue:
                self.line.drive(1, cycle)  # idle high
                return SLEEP if self.idle else None
            bits = self._bits = _FRAMES[self.queue.popleft()]
            self._bit_index = 0
            self._phase = 0
        i, d = self._bit_index, self.divisor
        self.line.drive(bits[i], cycle)
        p = self._phase + 1
        if p < d:
            self._phase = p
            # this level repeats to the end of the bit, and on through
            # every later bit of the same level
            level, ahead, i = bits[i], d - p, i + 1
        else:
            self._phase = 0
            i = self._bit_index = i + 1
            if i >= FRAME_BITS:
                self._bits = ()
                return SLEEP if self.idle else None
            level, ahead = bits[i - 1], 0
        while i < FRAME_BITS and bits[i] == level:
            ahead += d
            i += 1
        if i == FRAME_BITS and not self.queue:
            ahead -= 1  # wake at the eval that ends the final frame
        return cycle + 1 + ahead if ahead > 0 else None

    def credit(self, to_cycle: int) -> None:
        """Each skipped eval drove the current bit once more and
        advanced the phase; a span may cover any number of whole bits,
        up to the end of the frame."""
        skipped = to_cycle - 1 - self._cycle
        if skipped <= 0:
            return
        self._cycle = to_cycle - 1
        if not self._bits:
            return
        q, self._phase = divmod(self._phase + skipped, self.divisor)
        self._bit_index += q
        if self._bit_index >= FRAME_BITS:
            # the span ended the frame right before the next one starts
            self._bits = ()
            self._bit_index = FRAME_BITS
            self._phase = 0

    def reset(self) -> None:
        # The line wire must be created with reset=1 (RS-232 idles high).
        super().reset()
        self.queue.clear()
        self._bits = ()
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
        (divisor,) = _ints([state["divisor"]], 2, float("inf"), "divisor")
        bits = _ints(state["bits"], 0, 1, "bits", (0, FRAME_BITS))
        self.queue = deque(_ints(state["queue"], 0, 0xFF, "queue"))
        self._bits = tuple(bits)
        (self._bit_index,) = _ints([state["bit_index"]], 0, FRAME_BITS, "bit_index")
        (self._phase,) = _ints([state["phase"]], 0, divisor - 1, "phase")
        (self._cycle,) = _ints([state["cycle"]], 0, float("inf"), "cycle")
        self.divisor = divisor


class UartRx(Component):
    """Deserialises bytes from a 1-bit line at a known divisor."""

    def __init__(self, name: str, line: Wire, divisor: int = 4):
        super().__init__(name)
        if divisor < 2:
            raise ValueError("UART divisor must be at least 2 cycles per bit")
        if line.reader is not None:
            raise ValueError(f"line {line.name!r} already has a receiver")
        # every change of the line reaches edge()
        line.reader = self
        self.line = line
        self.divisor = self._reset_divisor = divisor
        self.received: Deque[int] = deque()
        self.framing_errors = 0
        self._sampling = False
        self._count = 0
        self._bits: list = []
        self._cycle = 0
        #: the line level the last eval saw (RS-232 idles high)
        self._level = 1
        #: (first cycle an eval sees it, level) of each line edge logged
        #: mid-frame (see :meth:`edge`), in cycle order
        self._edges: list = []
        #: first cycle a line edge needs an eval at, or SLEEP
        self.due = SLEEP

    def eval(self, cycle: int) -> Optional[float]:
        """Sample the line, and return the cycle of the stop-bit sample
        while framing: the start-bit and data-bit samples before it only
        record the line level, and that level cannot change unseen (the
        receiver logs each edge).  So the stop-bit sample delivers the
        byte (or counts a framing error) on its lock-step cycle, and
        :meth:`credit` replays the samples skipped before it.  Outside a
        frame it sleeps until the line drops (start bit); the parent
        drains the received bytes at its own eval.

        An edge that needs an eval (see :meth:`edge`) keeps the receiver
        due at that cycle: an eval before it returns no later."""
        self._cycle = cycle
        level = self.line.read(cycle)
        due = self._sample(cycle, level)
        self._level = level
        pending = self.due
        if pending <= cycle:
            pending = SLEEP
        if self._edges:
            # the line was read directly up to here; an edge of the next
            # cycle, driven this cycle before this eval, stays logged, or
            # is due if this eval ended the frame
            edges = [e for e in self._edges if e[0] > cycle]
            if edges and not self._sampling:
                pending, edges = edges[0][0], []
            self._edges = edges
        self.due = pending
        return due if due is None or due <= pending else pending

    def _sample(self, cycle: int, level: int) -> Optional[float]:
        """One eval's work on the line *level* seen at *cycle*."""
        d = self.divisor
        if not self._sampling:
            if level:
                return SLEEP
            self._sampling = True  # start-bit edge
            self._count = 0
            self._bits = []
            return cycle + d // 2 + 9 * d
        self._count += 1
        # Sample each bit at its mid-point: start bit at divisor/2, data
        # bit k at divisor/2 + (k+1)*divisor ...
        offset = self._count - d // 2
        if offset >= 0 and offset % d == 0:
            bit_index = offset // d
            if bit_index == 0:
                if level != 0:  # glitch, not a real start bit
                    self._sampling = False
                    return SLEEP
            elif bit_index <= 8:
                self._bits.append(level)
            else:
                # stop bit
                if level != 1:
                    self.framing_errors += 1
                else:
                    byte = 0
                    for i, bit in enumerate(self._bits):
                        byte |= bit << i
                    self.received.append(byte)
                self._sampling = False
                return SLEEP if level else None
        ahead = d // 2 + 9 * d - self._count  # evals to the stop sample
        return cycle + ahead if ahead > 1 else None

    @property
    def idle(self) -> bool:
        """True when an eval now would only restamp the cycle: not
        framing, the line high as the last eval saw it, and no edge
        since."""
        return not self._sampling and self._level == 1 and self.due == SLEEP

    def edge(self, cycle: int, level: int) -> None:
        """The line changed to *level*, first seen by the eval at
        *cycle* (its driver drove it at the cycle before).

        A framing receiver logs the edge for :meth:`credit` and needs
        no eval, unless the start-bit sample before *cycle* rejects the
        frame as a glitch (by the level the log holds there): the
        receiver is then idle again, and an edge may start a frame.
        Every edge needs an eval of an idle receiver (and of an
        auto-baud receiver before sync, which is never framing).  An
        edge that needs one makes the receiver due at *cycle* and wakes
        its kernel unit for that cycle; the unit may still evaluate in
        the current one, so the receiver's due keeps it awake."""
        if self._sampling and not self._rejects(cycle):
            self._edges.append((cycle, level))
            return
        self.due = cycle
        unit = self._sched
        if unit is not None and not unit._awake:
            unit._kernel.wake_next(unit)

    def _rejects(self, cycle: int) -> bool:
        """The start-bit sample, if it comes before *cycle*, rejects the
        frame being received as a glitch."""
        edges = self._edges
        half = self.divisor // 2
        if self._count < half:
            start = self._cycle + half - self._count  # start-bit sample
            if cycle > start:
                seen = self._level
                for at, lvl in edges:
                    if at > start:
                        break
                    seen = lvl
                return seen != 0
        return False

    def credit(self, to_cycle: int) -> None:
        """Replay skipped evals: each advanced ``_count``, and those at
        a start-bit or data-bit sample point sampled the line level in
        force at that cycle, the level the last eval saw or the last
        logged edge before it.  The stop-bit sample is never skipped.
        The logged edges up to the last skipped cycle then fold into
        the level the last eval saw, as lock-step would have seen it."""
        start = self._cycle
        skipped_cycles = to_cycle - 1 - start
        if skipped_cycles <= 0:
            return
        self._cycle = end = to_cycle - 1
        edges = self._edges
        level, i = self._level, 0
        if self._sampling:
            d = self.divisor
            half = d // 2
            before = self._count
            self._count = after = before + skipped_cycles
            # sample points half + k*d with before < point <= after
            first = 0 if before < half else (before - half) // d + 1
            for k in range(first, (after - half) // d + 1):
                at = start - before + half + k * d  # its cycle
                while i < len(edges) and edges[i][0] <= at:
                    level = edges[i][1]
                    i += 1
                if k:
                    self._bits.append(level)
                elif level != 0:  # the start-bit sample rejects a glitch
                    self._sampling = False
                    self._count = half
                    break
        if edges:
            while i < len(edges) and edges[i][0] <= end:
                level = edges[i][1]
                i += 1
            self._level = level
            self._edges = edges[i:]

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
        self._level = 1
        self._edges = []
        self.due = SLEEP
        self.divisor = self._reset_divisor

    def snapshot_state(self) -> dict:
        # A snapshot settles first, so the log holds at most the edge the
        # next eval sees; its level is on the line already (a restored
        # receiver is due at once to read it).
        return {
            "received": list(self.received),
            "framing_errors": self.framing_errors,
            "sampling": self._sampling,
            "count": self._count,
            "bits": list(self._bits),
            "cycle": self._cycle,
            "level": self._level,
            "divisor": self.divisor,
        }

    def restore_state(self, state: dict) -> None:
        self.received = deque(_ints(state["received"], 0, 0xFF, "received"))
        (self.framing_errors,) = _ints(
            [state["framing_errors"]], 0, float("inf"), "framing_errors"
        )
        self._sampling = _bool(state["sampling"], "sampling")
        self._bits = _ints(state["bits"], 0, 1, "bits", range(9))
        self._count, self._cycle = _ints(
            [state["count"], state["cycle"]], 0, float("inf"), "count/cycle"
        )
        (self._level,) = _ints([state["level"]], 0, 1, "level")
        (self.divisor,) = _ints([state["divisor"]], 2, float("inf"), "divisor")
        self._edges = []
        self.due = 0
        self.wake()


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
        self._last_edge_cycle: Optional[int] = None
        self._intervals: list = []

    @property
    def idle(self) -> bool:
        """Pre-sync an eval acts only on a line edge."""
        if self.synced:
            return super().idle
        return self.due == SLEEP

    def _sample(self, cycle: int, level: int) -> Optional[float]:
        """Pre-sync the receiver only acts on line *edges*, so it sleeps
        until the next one: every edge makes it due exactly there,
        keeping the measured intervals identical to lock-step
        evaluation."""
        if self.synced:
            return super()._sample(cycle, level)
        if level != self._level:
            if self._last_edge_cycle is not None:
                self._intervals.append(cycle - self._last_edge_cycle)
            self._last_edge_cycle = cycle
            if len(self._intervals) >= self.SYNC_EDGES:
                self.divisor = max(2, min(self._intervals))
                self.synced = True
                # The sync byte itself is consumed by synchronisation; the
                # final stop bit leaves the line idle, ready for framing.
        return SLEEP

    def reset(self) -> None:
        super().reset()
        self.synced = False
        self._last_edge_cycle = None
        self._intervals = []

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state.update(
            synced=self.synced,
            last_edge_cycle=self._last_edge_cycle,
            intervals=list(self._intervals),
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.synced = _bool(state["synced"], "synced")
        last = state["last_edge_cycle"]
        if last is not None:
            _ints([last], 0, float("inf"), "last_edge_cycle")
        self._last_edge_cycle = last
        self._intervals = _ints(state["intervals"], 0, float("inf"), "intervals")

"""The host-side "Serial software" (paper Section 4, references [4]).

:class:`SerialSoftware` is the program running on the host computer: it
owns the host end of the RS-232 link (a bit-level UART at its own baud
rate), performs the 0x55 synchronisation, sends read / write / activate
/ scanf-return commands and reacts to printf / scanf / read-return
replies, logging everything in per-processor interaction monitors.

Because host and board are co-simulated, the blocking convenience
methods (:meth:`read_memory`, :meth:`load_program`, ...) internally step
the shared :class:`~repro.sim.kernel.Simulator` until the reply arrives.

Like the Serial IP, the host is one kernel unit whose receiver logs
the txd line's edges mid-frame and sleeps through a whole frame
(:meth:`~repro.serial.uart.UartRx.edge`), and it skips the eval of an
idle UART.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..noc.flit import encode_address
from ..r8.assembler import ObjectCode
from ..serial import protocol
from ..serial.uart import FRAME_BITS, UartRx, UartTx
from ..sim import SLEEP, Component, Simulator
from ..sim.kernel import SimulationTimeout
from ..system.multinoc import MultiNoC
from .monitor import InteractionMonitor

Target = Union[int, Tuple[int, int]]

#: A write frame becomes one NoC write packet, so it carries at most
#: ``protocol.MAX_WRITE_WORDS`` words; stay under that.
MAX_WORDS_PER_WRITE = 64
MAX_WORDS_PER_READ = 64


def _flit(target: Target) -> int:
    if isinstance(target, tuple):
        return encode_address(*target)
    return target


class HostTimeout(Exception):
    """The board did not answer within the cycle budget.

    When a health monitor is attached to the simulator, ``diagnostics``
    carries its dump (copied from the underlying SimulationTimeout).
    """

    diagnostics: Optional[dict] = None


class SerialSoftware(Component):
    """Host computer model attached to MultiNoC's serial lines."""

    def __init__(
        self,
        system: MultiNoC,
        name: str = "host",
        baud_divisor: int = 4,
    ):
        super().__init__(name)
        self.system = system
        # Host drives the board's rxd and listens on the board's txd.
        self.uart_tx = UartTx(f"{name}.tx", system.rxd, divisor=baud_divisor)
        self.uart_rx = UartRx(f"{name}.rx", system.txd, divisor=baud_divisor)
        self.add_child(self.uart_tx)
        self.add_child(self.uart_rx)

        self._frame: List[int] = []
        self.read_returns: Deque[protocol.ReadReturnFrame] = deque()
        self.scanf_requests: Deque[protocol.ScanfFrame] = deque()
        self.monitors: Dict[int, InteractionMonitor] = {}
        self.scanf_handlers: Dict[int, Callable[[], int]] = {}
        self._sim: Optional[Simulator] = None
        self._cycle = 0
        self.synced = False
        #: (label, start cycle) of the blocking transaction in progress,
        #: or None; the health monitor's host watchdog reads this.
        self.current_transaction: Optional[Tuple[str, int]] = None
        #: optional TelemetrySink; hooks are behind one None-check each
        self.sink = None
        #: optional debugger hook: fn(message, cycle) called for every
        #: board->host frame (read return, printf, scanf request) as it
        #: is parsed; not serialized in checkpoints.
        self.on_frame = None

    def attach_telemetry(self, sink) -> None:
        """Register the host as a track; transactions become spans."""
        self.sink = sink
        sink.track(self.name, process="host")

    # -- wiring ---------------------------------------------------------------

    def connect(self, sim: Simulator) -> "SerialSoftware":
        """Register with *sim* (adds both this host and the system)."""
        sim.add(self.system)
        sim.add(self)
        self._sim = sim
        return self

    def monitor(self, proc: int) -> InteractionMonitor:
        if proc not in self.monitors:
            self.monitors[proc] = InteractionMonitor(proc)
        return self.monitors[proc]

    def set_scanf_handler(self, proc: int, handler: Callable[[], int]) -> None:
        """Auto-answer scanf requests from processor *proc*."""
        self.scanf_handlers[proc] = handler

    # -- simulation --------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """Nothing to shift out and nothing arriving: both UARTs idle
        and no reply byte waiting to be parsed."""
        return (
            self.uart_tx.idle
            and self.uart_rx.idle
            and not self.uart_rx.received
        )

    def eval(self, cycle: int) -> Optional[float]:
        """Sleep between transactions: each UART's due, the earlier
        one.  Queueing a command byte wakes the host
        (``UartTx.send_byte``), and board replies reach it through the
        receiver's line.  A partial reply in ``_frame`` is frozen until
        the next byte lands."""
        # inlined child walk (the two UARTs are the host's only
        # children), skipping an idle one
        tx, rx = self.uart_tx, self.uart_rx
        tx_due = tx.eval(cycle) if not tx.idle else SLEEP
        rx_due = rx.eval(cycle) if not rx.idle else SLEEP
        self._cycle = cycle
        while rx.received:
            self._frame.append(rx.received.popleft())
            length = protocol.board_frame_length(self._frame)
            if length is not None and len(self._frame) >= length:
                frame, self._frame = self._frame[:length], self._frame[length:]
                self._dispatch(protocol.parse_board_frame(frame))
        # a scanf answer queued after the transmitter's eval
        if rx_due is None or tx_due is None or (tx_due == SLEEP and not tx.idle):
            return None
        return min(tx_due, rx_due)

    def _dispatch(self, message) -> None:
        if self.on_frame is not None:
            self.on_frame(message, self._cycle)
        if isinstance(message, protocol.ReadReturnFrame):
            self.read_returns.append(message)
        elif isinstance(message, protocol.PrintfFrame):
            mon = self.monitor(message.proc)
            for word in message.words:
                mon.log_printf(self._cycle, word)
            if self.sink is not None:
                self.sink.instant(
                    self.name,
                    "printf",
                    self._cycle,
                    proc=message.proc,
                    words=list(message.words),
                )
        elif isinstance(message, protocol.ScanfFrame):
            self.monitor(message.proc).log_scanf_request(self._cycle)
            if self.sink is not None:
                self.sink.instant(
                    self.name, "scanf_request", self._cycle, proc=message.proc
                )
            handler = self.scanf_handlers.get(message.proc)
            if handler is not None:
                value = handler() & 0xFFFF
                self._answer_scanf(message.proc, value)
            else:
                self.scanf_requests.append(message)

    def _answer_scanf(self, proc: int, value: int) -> None:
        flit = self.system.config.id_to_flit()[proc]
        self.uart_tx.send_bytes(protocol.frame_scanf_return(flit, value))
        self.monitor(proc).log_scanf_answer(value, cycle=self._cycle)

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        # scanf_handlers are live callables and are deliberately NOT
        # serialized; a fresh-context restore re-registers them.
        return {
            "frame": list(self._frame),
            "read_returns": [
                {"address": r.address, "words": list(r.words)}
                for r in self.read_returns
            ],
            "scanf_requests": [
                {"proc": r.proc} for r in self.scanf_requests
            ],
            "monitors": [
                m.to_state() for _, m in sorted(self.monitors.items())
            ],
            "cycle": self._cycle,
            "synced": self.synced,
            "current_transaction": (
                list(self.current_transaction)
                if self.current_transaction is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        self._frame = list(state["frame"])
        self.read_returns = deque(
            protocol.ReadReturnFrame(r["address"], list(r["words"]))
            for r in state["read_returns"]
        )
        self.scanf_requests = deque(
            protocol.ScanfFrame(r["proc"]) for r in state["scanf_requests"]
        )
        self.monitors = {}
        for m in state["monitors"]:
            monitor = InteractionMonitor.from_state(m)
            self.monitors[monitor.proc] = monitor
        self._cycle = state["cycle"]
        self.synced = state["synced"]
        txn = state["current_transaction"]
        self.current_transaction = tuple(txn) if txn is not None else None

    # -- low-level sending -----------------------------------------------------------

    def _require_sim(self) -> Simulator:
        if self._sim is None:
            raise RuntimeError("call host.connect(sim) first")
        return self._sim

    def _run_until(
        self, predicate, max_cycles: int, label: str, false_for: int = 0
    ) -> None:
        """Step until *predicate* holds, within *max_cycles*.  The first
        *false_for* cycles, where it is known not to hold, are stepped
        without testing it."""
        sim = self._require_sim()
        self.current_transaction = (label, sim.cycle)
        if not 0 < false_for < max_cycles:
            false_for = 0
        try:
            if false_for:
                sim.step(false_for)
            sim.run_until(
                predicate, max_cycles=max_cycles - false_for, label=label
            )
        except SimulationTimeout as exc:  # re-raise with a host-level type
            # the cycles stepped first count toward the budget
            timeout = HostTimeout(
                str(exc).replace(
                    f" within {max_cycles - false_for} cycles",
                    f" within {max_cycles} cycles",
                    1,
                )
            )
            timeout.diagnostics = exc.diagnostics
            raise timeout from exc
        finally:
            self.current_transaction = None

    # -- the four host commands ---------------------------------------------------

    def _span_start(self) -> int:
        return self._require_sim().cycle

    def _span_end(self, name: str, start: int, **args) -> None:
        sim = self._require_sim()
        self.sink.complete(self.name, name, start, sim.cycle - start, **args)

    def sync(self, max_cycles: int = 10_000) -> None:
        """Send the 0x55 baud-rate byte and wait for the board to lock."""
        start = self._span_start() if self.sink is not None else 0
        self.uart_tx.send_byte(protocol.SYNC_BYTE)
        self._run_until(
            lambda: self.system.serial.synced, max_cycles, "baud sync"
        )
        self.synced = True
        if self.sink is not None:
            self._span_end("sync", start)

    def write_memory(
        self,
        target: Target,
        address: int,
        words: Sequence[int],
        max_cycles: int = 2_000_000,
    ) -> None:
        """Write *words* into the target IP's memory, chunked as needed."""
        start = self._span_start() if self.sink is not None else 0
        flit = _flit(target)
        offset = 0
        while offset < len(words):
            chunk = list(words[offset : offset + MAX_WORDS_PER_WRITE])
            self.uart_tx.send_bytes(
                protocol.frame_write(flit, address + offset, chunk)
            )
            offset += len(chunk)
        self._run_until(
            lambda: not self.uart_tx.busy and self.system.idle,
            max_cycles,
            "memory write drain",
            self._frames_ahead(),
        )
        if self.sink is not None:
            self._span_end(
                "write_memory", start, address=address, words=len(words)
            )

    def read_memory(
        self,
        target: Target,
        address: int,
        count: int,
        max_cycles: int = 2_000_000,
    ) -> List[int]:
        """Read *count* words from the target IP's memory."""
        start = self._span_start() if self.sink is not None else 0
        flit = _flit(target)
        words: List[int] = []
        offset = 0
        while offset < count:
            chunk = min(MAX_WORDS_PER_READ, count - offset)
            expected = len(self.read_returns) + 1
            self.uart_tx.send_bytes(
                protocol.frame_read(flit, address + offset, chunk)
            )
            self._run_until(
                lambda: len(self.read_returns) >= expected,
                max_cycles,
                "read return",
            )
            reply = self.read_returns.popleft()
            if reply.address != address + offset or len(reply.words) != chunk:
                raise HostTimeout(
                    f"mismatched read return: asked {chunk}@{address + offset:#06x}, "
                    f"got {len(reply.words)}@{reply.address:#06x}"
                )
            words.extend(reply.words)
            offset += chunk
        if self.sink is not None:
            self._span_end("read_memory", start, address=address, words=count)
        return words

    def activate(self, target: Target, max_cycles: int = 100_000) -> None:
        """Send the activate-processor command and let it land."""
        start = self._span_start() if self.sink is not None else 0
        self.uart_tx.send_bytes(protocol.frame_activate(_flit(target)))
        self._run_until(
            lambda: not self.uart_tx.busy and self.system.idle,
            max_cycles,
            "activate",
            self._frames_ahead(),
        )
        if self.sink is not None:
            self._span_end("activate", start)

    def _frames_ahead(self) -> int:
        """Cycles the transmitter stays busy at least: one whole frame
        per queued byte."""
        tx = self.uart_tx
        return len(tx.queue) * FRAME_BITS * tx.divisor

    def answer_scanf(self, value: int) -> None:
        """Answer the oldest pending scanf request manually."""
        if not self.scanf_requests:
            raise RuntimeError("no pending scanf request")
        request = self.scanf_requests.popleft()
        self._answer_scanf(request.proc, value)

    # -- composite flows (paper Figure 8) ----------------------------------------------

    def load_program(
        self, target: Target, obj: ObjectCode, max_cycles: int = 5_000_000
    ) -> None:
        """Send assembled object code into a processor's local memory."""
        for origin, segment in obj.segments:
            self.write_memory(target, origin, segment, max_cycles=max_cycles)
        self._stash_symbols(target, obj)

    def _stash_symbols(self, target: Target, obj: ObjectCode) -> None:
        """Remember the program's symbol table on its ProcessorIp and put
        it into the trace, so post-mortem analysis can resolve PC samples
        to function names even from a reloaded JSONL file."""
        flit = _flit(target)
        for proc in self.system.processors.values():
            if encode_address(*proc.noc_address) != flit:
                continue
            symbols = dict(getattr(obj, "symbols", {}) or {})
            proc.symbols = symbols
            if self.sink is not None and symbols:
                self.sink.instant(
                    proc.cpu.name,
                    "symbols",
                    self._require_sim().cycle,
                    symbols=symbols,
                )
            return

    def run_program(
        self,
        target: Target,
        proc_id: int,
        obj: ObjectCode,
        max_cycles: int = 5_000_000,
    ) -> None:
        """Full Figure 8 flow: load, activate, wait for HALT."""
        if not self.synced:
            self.sync()
        self.load_program(target, obj)
        self.activate(target)
        proc = self.system.processors[proc_id]
        self._run_until(
            lambda: proc.cpu.halted, max_cycles, f"processor {proc_id} halt"
        )
        # Let trailing printf traffic reach the host monitors.
        self._run_until(
            lambda: self.system.idle and not self.system.serial.uart_tx.busy,
            max_cycles,
            "I/O drain",
        )
        # ...plus the final frame still deserialising at the host UART.
        self._require_sim().step(12 * self.uart_rx.divisor)

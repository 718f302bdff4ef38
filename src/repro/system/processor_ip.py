"""The Processor IP core (paper Section 2.4, Figure 5).

One Processor IP bundles an R8 core, a Memory IP block as its local
memory (:class:`~repro.memory.memory_ip.MemoryBlock`: four BlockRAM
nibble banks and the NoC read/write server) and the control logic
gluing both to a single Hermes network interface.  The control logic:

* decodes R8 load/store addresses (local / other processor / remote
  memory / I/O / wait / notify) per the address map,
* turns remote accesses into NoC service packets, stalling the core
  until completion (the ``waitR8`` mechanism — a pending bus
  transaction),
* hands incoming read/write packets to the local memory's server, which
  yields the banks to the core ("The highest priority to access the
  memory banks is given to the processor"),
* handles activate / notify / wait packets.

Sleeping.  The IP is one kernel unit.  It sleeps while its core cannot
change anything on its own: halted, paused, stalled on a transaction,
or spinning in a poll loop over local memory that has reached a fixed
point (the core is back in the state it had at its previous backward
jump, and nothing it reads has changed since).  A flit at the NI wakes
it.  ``on_wake`` credits stall cycles, or whole loop periods plus the
cycles around them evaluated for real, so every counter matches
lock-step.  Spin sleep is off while a telemetry sink, PC sampling or
an observer that sets :attr:`ProcessorIp.observed` watches the core
every cycle.  :meth:`ProcessorIp.load` and a restore credit the
open span and wake the IP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..memory.memory_ip import MemoryBlock
from ..noc import services
from ..noc.flit import decode_address, encode_address
from ..noc.ni import NetworkInterface
from ..noc.packet import Packet
from ..r8.bus import Transaction
from ..r8.cpu import R8Cpu
from ..sim import Component, SnapshotError
from .address_map import Access, AccessKind, AddressMap


class ProcessorIp(Component):
    """R8 core + local memory + NoC control logic.

    Parameters
    ----------
    proc_id:
        The processor number used by wait/notify ("the number of the
        processor that will be restarted").
    id_to_flit:
        Registry mapping processor/IP numbers to NoC header flits, shared
        across the system (wait/notify address peers by number).
    serial_flit:
        Header flit of the Serial IP, the printf/scanf endpoint.
    """

    def __init__(
        self,
        name: str,
        address: Tuple[int, int],
        proc_id: int,
        address_map: AddressMap,
        id_to_flit: Dict[int, int],
        serial_flit: int,
        local_words: int = 1024,
        stats=None,
    ):
        super().__init__(name)
        self.noc_address = address
        self.proc_id = proc_id
        self.address_map = address_map
        self.id_to_flit = id_to_flit
        self.serial_flit = serial_flit

        self.cpu = R8Cpu(f"{name}.r8", bus=self)
        self.ni = NetworkInterface(f"{name}.ni", address, stats=stats)
        self.banks = MemoryBlock(self.ni, local_words)
        self.add_child(self.cpu)
        self.add_child(self.ni)

        # outstanding remote transaction issued by the core
        self._pending: Optional[Transaction] = None
        self._pending_kind: Optional[AccessKind] = None
        self._wait_source: Optional[int] = None
        # buffered notifies (a notify may land before the wait executes)
        self._notify_counts: Dict[int, int] = {}
        self.dropped_packets: List[Packet] = []
        self.activations = 0
        #: symbol table of the last program loaded into this processor
        #: (name -> address), stashed by the host loader so the
        #: post-mortem profiler can resolve PC samples; None until then.
        self.symbols: Optional[Dict[str, int]] = None
        #: optional TelemetrySink; hooks are behind one None-check each
        self.sink = None
        self._now = 0
        self._wait_start: Optional[int] = None
        self._remote_start = 0
        self._scanf_start = 0
        #: set while an observer reads this core every cycle (the system
        #: debugger's breakpoints, expressions and watchpoints): the
        #: core is then evaluated through its poll loops
        self.observed = False
        self._clear_spin()

    # ======================= telemetry =====================================

    def attach_telemetry(self, sink) -> None:
        """Register tracks for this IP, its core and its NI; enable hooks."""
        # a span slept in a poll loop is credited before the sink sees it
        self._credit_and_wake()
        self.sink = sink
        sink.track(self.name, process="cpu")
        sink.track(self.cpu.name, process="cpu")
        self.cpu.sink = sink
        self.cpu.enable_pc_sampling()
        sink.track(self.ni.name, process="noc")
        self.ni.sink = sink
        metrics = sink.metrics
        for stat in ("instructions_retired", "cycles_active", "cycles_stalled"):
            metrics.gauge(
                f"cpu_{self.proc_id}_{stat}", f"R8 core {stat}"
            ).set_function(lambda cpu=self.cpu, s=stat: getattr(cpu, s))

    # ================= MemoryBus protocol (called by the R8 core) ==========

    def fetch(self, addr: int) -> int:
        """Instruction fetch: always from local memory, processor priority.

        Uses the hook-free ``fetch_word`` path so debugger data
        watchpoints never fire on instruction streaming.
        """
        banks = self.banks
        banks.proc_used = True
        return banks.fetch_word(addr % banks.depth)

    def read(self, addr: int) -> Transaction:
        access = self.address_map.classify(addr)
        txn = Transaction(False, addr)
        if access.kind == AccessKind.LOCAL:
            txn.complete(self.banks.proc_read(access.offset))
        elif access.kind == AccessKind.REMOTE:
            self.cpu.spin_dirty = True
            self.ni.send_packet(
                services.encode_read(
                    decode_address(access.target_flit),
                    encode_address(*self.noc_address),
                    access.offset,
                    1,
                )
            )
            self._pending = txn
            self._pending_kind = AccessKind.REMOTE
            if self.sink is not None:
                self._remote_start = self._now
        elif access.kind == AccessKind.IO:
            # LD from FFFF = scanf (paper Section 2.4, I/O Operations)
            self.cpu.spin_dirty = True
            self.ni.send_packet(
                services.encode_scanf(
                    decode_address(self.serial_flit), self.proc_id
                )
            )
            self._pending = txn
            self._pending_kind = AccessKind.IO
            if self.sink is not None:
                self._scanf_start = self._now
        else:
            raise RuntimeError(
                f"{self.name}: load from invalid address {addr:#06x} "
                f"({access.kind.value})"
            )
        return txn

    def write(self, addr: int, value: int) -> Transaction:
        self.cpu.spin_dirty = True
        access = self.address_map.classify(addr)
        txn = Transaction(True, addr, value)
        if access.kind == AccessKind.LOCAL:
            self.banks.proc_write(access.offset, value)
            txn.complete()
        elif access.kind == AccessKind.REMOTE:
            self.ni.send_packet(
                services.encode_write(
                    decode_address(access.target_flit), access.offset, [value]
                )
            )
            self._pending = txn
            self._pending_kind = AccessKind.REMOTE
        elif access.kind == AccessKind.IO:
            # ST to FFFF = printf
            self.ni.send_packet(
                services.encode_printf(
                    decode_address(self.serial_flit), self.proc_id, [value]
                )
            )
            self._pending = txn
            self._pending_kind = AccessKind.IO
            if self.sink is not None:
                self.sink.instant(self.name, "printf", self._now, value=value)
        elif access.kind == AccessKind.NOTIFY:
            # ST to FFFD: wake processor number <value>
            peer = self._peer_flit(value)
            self.ni.send_packet(
                services.encode_notify(decode_address(peer), self.proc_id)
            )
            self._pending = txn
            self._pending_kind = AccessKind.NOTIFY
            if self.sink is not None:
                self.sink.instant(self.name, "notify_send", self._now, to=value)
        elif access.kind == AccessKind.WAIT:
            # ST to FFFE: block until notify from processor number <value>
            if self._consume_notify(value):
                txn.complete()
                if self.sink is not None:
                    self.sink.complete(self.name, "wait", self._now, 0, on=value)
            else:
                self._pending = txn
                self._pending_kind = AccessKind.WAIT
                self._wait_source = value
                if self.sink is not None:
                    self._wait_start = self._now
        else:
            raise RuntimeError(
                f"{self.name}: store to invalid address {addr:#06x}"
            )
        return txn

    def _peer_flit(self, proc_id: int) -> int:
        try:
            return self.id_to_flit[proc_id]
        except KeyError as exc:
            raise RuntimeError(
                f"{self.name}: wait/notify names unknown processor {proc_id}"
            ) from exc

    def _consume_notify(self, source: int) -> bool:
        count = self._notify_counts.get(source, 0)
        if count > 0:
            self._notify_counts[source] = count - 1
            return True
        return False

    # ======================= simulation ========================================

    def eval(self, cycle: int) -> None:
        if self.sink is not None:
            self._now = cycle
        # cpu first (bus calls), then ni; inlined from the generic
        # child walk — these are the IP's only children and this call
        # chain runs every active cycle.
        self.cpu.eval(cycle)
        self.ni.eval(cycle)
        self._complete_posted_ops()
        self._handle_incoming(cycle)
        banks = self.banks
        banks.step()
        banks.proc_used = False

    def is_quiescent(self) -> bool:
        """The whole IP sleeps only when the core cannot change its
        inputs on its own, the NI is idle with nothing undelivered, the
        local-memory server has no work, and no posted operation is
        waiting to complete.  The core is halted, paused, stalled on an
        external transaction, or spinning in a poll loop that has reached
        a fixed point (see :meth:`_spin_check`).  Every possible resume
        path is covered by a wake: incoming flits wake the NI's watched
        wires, and local completions keep the unit awake until they
        land."""
        cpu = self.cpu
        if cpu.back_jump:
            cpu.back_jump = False
            return self._spin_check()
        if not cpu.sleepable:
            return False
        if not self._rest_idle():
            return False
        self._spin = None
        return True

    def _rest_idle(self) -> bool:
        """Everything but the core is idle: memory server, posted
        operations and NI."""
        if not self.banks.idle:
            return False
        if self._posted_op_pending():
            # fire-and-forget: completes locally on a later eval
            return False
        ni = self.ni
        return not ni.received and ni.is_quiescent()

    # -- spin sleep: a poll loop over unchanged local memory -----------------

    def _spin_check(self) -> bool:
        """At the fetch boundary after a taken backward jump: sleep if
        the core is back in the state it had at the previous one and,
        since then, nothing could have changed what it reads.

        Nothing means: no store of any kind, no read outside local
        memory, no popped packet, no memory-server work, no direct load
        and no direct change to the core (each sets the core's
        ``spin_dirty``).  The iteration just run then
        read the memory as it still is, so the next one repeats it, and
        so on until a flit reaches the NI, the core is activated or the
        IP is mutated directly: each of those wakes the unit.  The loop
        period is credited by :meth:`on_wake`."""
        cpu = self.cpu
        key = cpu.spin_key()
        counters = cpu.counters()
        sleep = (
            key == self._spin_key
            and not cpu.spin_dirty
            and cpu.sink is None
            and cpu.pc_samples is None
            and not self.observed
            and self._rest_idle()
        )
        if sleep:
            mark = self._spin_mark
            self._spin = tuple(n - m for n, m in zip(counters, mark))
            self._spin_phase = 0
        self._spin_key = key
        self._spin_mark = counters
        # a request the server is still running writes during the window
        cpu.spin_dirty = not self.banks.idle
        return sleep

    def _clear_spin(self) -> None:
        #: (cycles, instructions, stalled cycles) of one iteration of
        #: the loop the core sleeps in, or None for the other sleeps
        self._spin: Optional[Tuple[int, int, int]] = None
        #: cycles into that iteration the core has been credited to
        self._spin_phase = 0
        #: core state and counters at the last backward jump
        self._spin_key: Optional[tuple] = None
        self._spin_mark = (0, 0, 0)

    def on_wake(self, skipped_cycles: int) -> None:
        """Credit the skipped evals: stall cycles to a halted, paused or
        stalled core, and whole loop periods to a spinning one.

        A spinning core is first evaluated back to its loop head, then
        credited ``n // period`` iterations arithmetically, and evaluated
        through the rest, so it leaves exactly where lock-step would.
        Every eval here reads local memory only; the cycle it is given
        only stamps telemetry, which keeps spin sleep off."""
        spin = self._spin
        if spin is None:
            self.cpu.credit_idle_cycles(skipped_cycles)
            return
        period = spin[0]
        n = skipped_cycles
        cpu = self.cpu
        if self._spin_phase:
            head = min(n, period - self._spin_phase)
            for _ in range(head):
                cpu.eval(0)
            n -= head
            self._spin_phase = (self._spin_phase + head) % period
        if self._spin_phase == 0:
            periods, n = divmod(n, period)
            cpu.credit_loop(periods, *spin)
            # the next iteration is measured from this loop head
            self._spin_mark = cpu.counters()
            for _ in range(n):
                cpu.eval(0)
            self._spin_phase = n
        cpu.back_jump = False
        self.banks.proc_used = False

    def _credit_and_wake(self) -> None:
        """Before a direct mutation: credit the open sleep span with the
        inputs it was spent on, then make the core read the new ones."""
        kernel = self._kernel
        if kernel is not None:
            kernel.settle_unit(self)
        self.cpu.spin_dirty = True
        self.wake()

    def reset(self) -> None:
        super().reset()
        self._clear_spin()
        self._pending = None
        self._pending_kind = None
        self._wait_source = None
        self._notify_counts = {}
        self.banks.reset()
        self.dropped_packets = []
        self.activations = 0
        self._wait_start = None

    # -- posted operations (writes, printf, notify) complete on injection ----

    def _posted_op_pending(self) -> bool:
        """A fire-and-forget access (notify, remote or I/O write) is
        waiting to complete locally once its packet leaves the NI."""
        p = self._pending
        if p is None or p.done:
            return False
        k = self._pending_kind
        return k == AccessKind.NOTIFY or (
            p.is_write and k in (AccessKind.REMOTE, AccessKind.IO)
        )

    def _complete_posted_ops(self) -> None:
        # the None test first: this runs every active cycle
        if (
            self._pending is not None
            and self._posted_op_pending()
            and not self.ni.tx_busy
        ):
            self._pending.complete()
            self._clear_pending()

    def _clear_pending(self) -> None:
        self._pending = None
        self._pending_kind = None
        self._wait_source = None

    # -- incoming service packets ------------------------------------------------

    def _handle_incoming(self, cycle: int) -> None:
        while self.ni.has_received():
            self.cpu.spin_dirty = True
            packet = self.ni.pop_received()
            try:
                message = services.decode(packet)
            except services.ServiceError:
                self.dropped_packets.append(packet)
                continue
            if isinstance(message, services.Activate):
                self.cpu.activate()
                self.activations += 1
                if self.sink is not None:
                    self.sink.instant(self.name, "activate_packet", cycle)
            elif isinstance(message, services.ReadReturn):
                self._complete_read(message.words)
            elif isinstance(message, services.ScanfReturn):
                self._complete_scanf(message.value)
            elif isinstance(message, services.Notify):
                self._handle_notify(message.source)
            elif isinstance(message, services.Wait):
                # the wait *packet* service: park the core until notified
                self.cpu.paused = True
                self._wait_source = message.source
            elif isinstance(message, (services.ReadRequest, services.WriteRequest)):
                self.banks.accept(message)
            else:
                self.dropped_packets.append(packet)

    def _complete_read(self, words: List[int]) -> None:
        if (
            self._pending is None
            or self._pending.is_write
            or self._pending_kind != AccessKind.REMOTE
        ):
            raise RuntimeError(f"{self.name}: unexpected read return")
        self._pending.complete(words[0] if words else 0)
        self._clear_pending()
        if self.sink is not None:
            self.sink.complete(
                self.name,
                "remote_read",
                self._remote_start,
                self._now - self._remote_start,
            )

    def _complete_scanf(self, value: int) -> None:
        if (
            self._pending is None
            or self._pending.is_write
            or self._pending_kind != AccessKind.IO
        ):
            raise RuntimeError(f"{self.name}: unexpected scanf return")
        self._pending.complete(value)
        self._clear_pending()
        if self.sink is not None:
            self.sink.complete(
                self.name,
                "scanf",
                self._scanf_start,
                self._now - self._scanf_start,
                value=value,
            )

    def _handle_notify(self, source: int) -> None:
        if self.sink is not None:
            self.sink.instant(self.name, "notify_recv", self._now, source=source)
        # A blocked ST-to-FFFE waiting on this source?
        if (
            self._pending is not None
            and self._pending_kind == AccessKind.WAIT
            and self._wait_source == source
        ):
            self._pending.complete()
            self._clear_pending()
            if self.sink is not None and self._wait_start is not None:
                self.sink.complete(
                    self.name,
                    "wait",
                    self._wait_start,
                    self._now - self._wait_start,
                    on=source,
                )
                self._wait_start = None
            return
        # A wait *packet* pause?
        if self.cpu.paused and self._wait_source == source:
            self.cpu.paused = False
            self._wait_source = None
            return
        self._notify_counts[source] = self._notify_counts.get(source, 0) + 1

    # -- checkpointing -------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "memory": self.banks.snapshot_state(),
            # the pending transaction itself lives in the CPU snapshot
            # (self._pending aliases cpu._txn); record only the kind.
            "pending_kind": (
                self._pending_kind.value
                if self._pending_kind is not None
                else None
            ),
            "wait_source": self._wait_source,
            "notify_counts": sorted(
                [src, n] for src, n in self._notify_counts.items()
            ),
            "dropped": [p.to_state() for p in self.dropped_packets],
            "activations": self.activations,
            "symbols": self.symbols,
            "now": self._now,
            "wait_start": self._wait_start,
            "remote_start": self._remote_start,
            "scanf_start": self._scanf_start,
        }

    def restore_state(self, state: dict) -> None:
        self.banks.restore_state(state["memory"])
        kind = state["pending_kind"]
        if kind is None:
            self._pending = None
            self._pending_kind = None
        else:
            # children restored first, so the CPU already rebuilt its
            # transaction object: re-link the alias (the IP completes the
            # very object the core is stalled on).
            self._pending = self.cpu._txn
            self._pending_kind = AccessKind(kind)
            if self._pending is None:
                raise SnapshotError(
                    f"{self.name}: pending {kind} access without a CPU "
                    f"transaction in the snapshot"
                )
        self._wait_source = state["wait_source"]
        self._notify_counts = {
            src: n for src, n in state["notify_counts"]
        }
        self.dropped_packets = [
            Packet.from_state(p) for p in state["dropped"]
        ]
        self.activations = state["activations"]
        self.symbols = state["symbols"]
        self._now = state["now"]
        self._wait_start = state["wait_start"]
        self._remote_start = state["remote_start"]
        self._scanf_start = state["scanf_start"]
        # the spin record is not checkpointed: the core finds its loop
        # again within two iterations
        self._clear_spin()
        self.wake()

    @property
    def server_idle(self) -> bool:
        """True when no NoC-initiated local-memory operation is in flight."""
        return self.banks.idle

    def probe_state(self) -> dict:
        """Cheap introspection snapshot for health monitoring/diagnostics."""
        cpu = self.cpu
        return {
            "proc_id": self.proc_id,
            "address": self.noc_address,
            "pc": cpu.pc,
            "fsm": cpu.fsm_state,
            "halted": cpu.halted,
            "paused": cpu.paused,
            "instructions_retired": cpu.instructions_retired,
            "pending": (
                self._pending_kind.value
                if self._pending_kind is not None
                else None
            ),
            "wait_source": self._wait_source,
            "ni": self.ni.probe_state(),
        }

    # -- debugging helpers -------------------------------------------------------------

    def load(self, words, base: int = 0) -> None:
        """Directly load words into local memory (testbench shortcut)."""
        self._credit_and_wake()
        self.banks.load(words, base)

    def dump(self, start: int = 0, count: Optional[int] = None) -> List[int]:
        return self.banks.dump(start, count)

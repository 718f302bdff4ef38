"""The Memory IP core (paper Section 2.3, Figure 4).

:class:`MemoryBlock` is Figure 4's memory: four BlockRAM nibble banks
(1K x 16 bit) and the small server that answers ``write in memory`` and
``read from memory`` packets, the latter with ``read return``.  Every
memory in the system is one such block:

* :class:`MemoryIp`, the stand-alone remote memory, is a network
  interface plus one block, and drops every other service;
* :class:`~repro.system.processor_ip.ProcessorIp` embeds one block as
  its R8's local memory (Figure 5).

"The highest priority to access the memory banks is given to the
processor": a cycle in which the processor port touched the banks sets
:attr:`MemoryBlock.proc_used`, and the server does not step in that
cycle.  That flag and :attr:`MemoryBlock.idle` are the
``busyNoCR8``/``busyNoCMem`` interlocks of Figure 4.  Addresses wrap at
the bank depth, the 10-bit address decode of a 1K-word memory.

The owning IP's ``eval`` decides when the block starts and steps a
request, which is where the two IPs' timings differ by one cycle: the
Processor IP starts and serves a request in the cycle it arrives, and
the Memory IP starts one in the cycle it pops the request from its NI
and serves it from the next cycle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..noc import services
from ..noc.flit import decode_address
from ..noc.ni import NetworkInterface
from ..noc.packet import Packet
from ..sim import SLEEP, Component, SnapshotError
from .blockram import MemoryBanks

_IDLE = 0
_WRITING = 1
_READING = 2


class MemoryBlock(MemoryBanks):
    """Four nibble banks plus the NoC read/write server behind *ni*.

    The server runs one request at a time; :meth:`accept` queues a
    request that arrives while another runs.  Reads are answered through
    *ni* with a ``read return`` packet.
    """

    def __init__(self, ni: NetworkInterface, depth: int = 1024):
        super().__init__(depth)
        self.ni = ni
        #: optional MultiNoC counting its busy servers (see idle); it
        #: recounts on reset, restore and memory removal
        self.system = None
        self.reset()

    def reset(self) -> None:
        """Park the server (the stored words are kept)."""
        #: the processor port used the banks this cycle; the owning IP
        #: clears it once per cycle
        self.proc_used = False
        self._state = _IDLE
        self._addr = 0
        self._words: List[int] = []
        self._remaining = 0
        self._reply_to: Optional[int] = None
        self._backlog: List = []

    @property
    def idle(self) -> bool:
        """No request running or queued."""
        return self._state == _IDLE and not self._backlog

    # -- processor port (highest priority) -----------------------------------

    def proc_read(self, addr: int) -> int:
        self.proc_used = True
        return self.read_word(addr % self.depth)

    def proc_write(self, addr: int, value: int) -> None:
        self.proc_used = True
        self.write_word(addr % self.depth, value)

    # -- NoC server ----------------------------------------------------------------

    def accept(self, message) -> None:
        """Start a decoded ``WriteRequest``/``ReadRequest``, or queue it
        behind the running one."""
        if self._state != _IDLE:
            self._backlog.append(message)
            return
        if self.system is not None and not self._backlog:
            self.system.busy_servers += 1
        self._start(message)

    def _start(self, message) -> None:
        self._addr = message.address
        if isinstance(message, services.WriteRequest):
            self._state = _WRITING
            self._words = list(message.words)
        else:
            self._state = _READING
            self._remaining = message.count
            self._words = []
            self._reply_to = message.reply_to

    def step(self) -> None:
        """One server cycle: start the next queued request, or advance
        the running one by a word unless the processor used the banks."""
        if self._state == _IDLE:
            if self._backlog:
                self._start(self._backlog.pop(0))
            return
        if self.proc_used:
            return
        if self._state == _WRITING:
            if self._words:
                self.write_word(self._addr % self.depth, self._words.pop(0))
                self._addr += 1
            if not self._words:
                self._park()
        elif self._remaining > 0:
            self._words.append(
                self.read_word((self._addr + len(self._words)) % self.depth)
            )
            self._remaining -= 1
        else:
            self.ni.send_packet(
                services.encode_read_return(
                    decode_address(self._reply_to), self._addr, self._words
                )
            )
            self._park()
            self._words = []

    def _park(self) -> None:
        self._state = _IDLE
        if self.system is not None and not self._backlog:
            self.system.busy_servers -= 1

    # -- checkpointing -------------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "mem": self.dump(),
            "proc_used": self.proc_used,
            "state": self._state,
            "addr": self._addr,
            "words": list(self._words),
            "remaining": self._remaining,
            "reply_to": self._reply_to,
            "backlog": [services.message_to_state(m) for m in self._backlog],
        }

    def restore_state(self, state: dict) -> None:
        self.load(state["mem"])
        self.proc_used = state["proc_used"]
        self._state = state["state"]
        self._addr = state["addr"]
        self._words = list(state["words"])
        self._remaining = state["remaining"]
        self._reply_to = state["reply_to"]
        try:
            self._backlog = [
                services.message_from_state(m) for m in state["backlog"]
            ]
        except services.ServiceError as exc:
            raise SnapshotError(str(exc)) from exc


class MemoryIp(Component):
    """The stand-alone remote memory: an NI plus a :class:`MemoryBlock`."""

    def __init__(
        self,
        name: str,
        address: Tuple[int, int],
        depth: int = 1024,
        stats=None,
    ):
        super().__init__(name)
        self.noc_address = address
        self.ni = NetworkInterface(f"{name}.ni", address, stats=stats)
        self.add_child(self.ni)
        self.banks = MemoryBlock(self.ni, depth)
        self.dropped_packets: List[Packet] = []

    # -- processor interface (direct port, highest priority) ------------------

    def proc_read(self, addr: int) -> int:
        """Single-cycle word read from the processor side."""
        self.wake()
        return self.banks.proc_read(addr)

    def proc_write(self, addr: int, value: int) -> None:
        """Single-cycle word write from the processor side."""
        self.wake()
        self.banks.proc_write(addr, value)

    @property
    def noc_busy(self) -> bool:
        """The busyNoCMem signal: a NoC-side operation is under way."""
        return not self.banks.idle or self.ni.tx_busy

    # -- direct loading (testbench convenience) --------------------------------

    def load(self, words, base: int = 0) -> None:
        self.banks.load(words, base)

    def dump(self, start: int = 0, count: Optional[int] = None) -> List[int]:
        return self.banks.dump(start, count)

    # -- simulation ---------------------------------------------------------------

    def eval(self, cycle: int) -> Optional[float]:
        """Run the NI and the server; sleep when the server is parked
        and the NI is silent with nothing to send or deliver."""
        ni, banks = self.ni, self.banks
        ni_due = ni.eval(cycle)
        if banks.proc_used:
            banks.proc_used = False
        elif not banks.idle:
            banks.step()
        elif ni.has_received():
            packet = ni.pop_received()
            try:
                message = services.decode(packet)
            except services.ServiceError:
                message = None
            if isinstance(
                message, (services.WriteRequest, services.ReadRequest)
            ):
                banks.accept(message)
            else:
                # A plain memory has no processor to activate or notify.
                self.dropped_packets.append(packet)
        if ni_due is None or not banks.idle or ni.received or ni._tx_queue:
            return None
        return SLEEP

    def reset(self) -> None:
        super().reset()
        self.banks.reset()
        self.dropped_packets = []

    # -- checkpointing ---------------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "memory": self.banks.snapshot_state(),
            "dropped": [p.to_state() for p in self.dropped_packets],
        }

    def restore_state(self, state: dict) -> None:
        self.banks.restore_state(state["memory"])
        self.dropped_packets = [
            Packet.from_state(p) for p in state["dropped"]
        ]

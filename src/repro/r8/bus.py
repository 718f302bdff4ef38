"""Processor-side memory bus protocol.

The R8 core issues :class:`Transaction` objects on a bus; the owner of
the bus (the Processor IP control logic, or a plain local memory in
stand-alone tests) completes them.  A transaction that stays pending
stalls the core — this is exactly the ``waitR8`` signal of the paper's
Figure 5: the control logic "puts it in wait state each time the
processor executes a load-store instruction" that needs the NoC.
"""

from __future__ import annotations

from typing import List, Optional, Protocol


class Transaction:
    """One outstanding read or write."""

    __slots__ = ("is_write", "addr", "value", "done")

    def __init__(self, is_write: bool, addr: int, value: int = 0):
        self.is_write = is_write
        self.addr = addr
        self.value = value
        self.done = False

    def complete(self, value: Optional[int] = None) -> None:
        """Mark the transaction finished, optionally with read data."""
        if value is not None:
            self.value = value
        self.done = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "W" if self.is_write else "R"
        state = "done" if self.done else "pending"
        return f"<Txn {kind} @{self.addr:04x} ={self.value:04x} {state}>"


class MemoryBus(Protocol):
    """What the R8 core requires from its environment."""

    def fetch(self, addr: int) -> int:
        """Instruction fetch: always local, always completes immediately."""

    def read(self, addr: int) -> Transaction:
        """Start a data read; may complete later (remote/NoC access)."""

    def write(self, addr: int, value: int) -> Transaction:
        """Start a data write; may complete later (remote/NoC access)."""


class LocalBus:
    """A bus backed by a flat local word memory; every access is immediate.

    The memory of a stand-alone :class:`~repro.r8.cpu.R8Cpu`, as in the
    CPU tests and benchmarks (the instruction-set simulator keeps its own
    word list).  Addresses wrap at the memory size, which mirrors partial
    address decoding of a small memory.
    """

    def __init__(self, size_words: int = 1024):
        self.size = size_words
        self.data: List[int] = [0] * size_words

    def load(self, words, base: int = 0) -> None:
        """Copy an iterable of 16-bit words into memory at *base*."""
        for i, w in enumerate(words):
            self.data[(base + i) % self.size] = w & 0xFFFF

    def fetch(self, addr: int) -> int:
        return self.data[addr % self.size]

    def read(self, addr: int) -> Transaction:
        txn = Transaction(False, addr, self.data[addr % self.size])
        txn.done = True
        return txn

    def write(self, addr: int, value: int) -> Transaction:
        self.data[addr % self.size] = value & 0xFFFF
        txn = Transaction(True, addr, value)
        txn.done = True
        return txn

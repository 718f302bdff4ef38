"""BlockRAM primitives.

"Each Memory IP contains 4 BlockRAM modules, each organized as 1024
4-bit words" (paper Section 2.3, Figure 4).  The four nibble banks are
accessed in parallel to read and write 16-bit words.  Each bank keeps
its words in a ``bytearray``, one byte per nibble.
"""

from __future__ import annotations

from typing import List


class BlockRam:
    """One FPGA BlockRAM, organised as ``depth`` x ``width`` bits, at
    most 8 bits wide (one byte per word)."""

    def __init__(self, depth: int = 1024, width: int = 4):
        if not 1 <= width <= 8:
            raise ValueError(f"BlockRAM width {width} is not 1..8 bits")
        self.depth = depth
        self.width = width
        self._mask = (1 << width) - 1
        self.data = bytearray(depth)

    def read(self, addr: int) -> int:
        self._check(addr)
        return self.data[addr]

    def write(self, addr: int, value: int) -> None:
        self._check(addr)
        if value & ~self._mask:
            raise ValueError(
                f"value {value:#x} does not fit in {self.width}-bit BlockRAM"
            )
        self.data[addr] = value

    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.depth:
            raise IndexError(
                f"BlockRAM address {addr:#06x} out of range 0..{self.depth - 1}"
            )


class MemoryBanks:
    """Four nibble-wide BlockRAMs accessed in parallel as 16-bit words.

    RAM3 holds bits 15:12 down to RAM0 holding bits 3:0, matching
    Figure 4's din/dout slicing.
    """

    N_BANKS = 4
    NIBBLE = 4

    def __init__(self, depth: int = 1024):
        self.depth = depth
        self.banks = [BlockRam(depth, self.NIBBLE) for _ in range(self.N_BANKS)]
        #: optional debugger hook ``watch(is_write, addr, value)`` called
        #: on every architectural word access (not instruction fetch).
        self.watch = None

    def fetch_word(self, addr: int) -> int:
        # One bounds check and four direct nibble reads: word access sits
        # on the CPU fetch path, the hottest loop in the whole simulator.
        # Fetches bypass the watch hook so instruction streaming never
        # triggers data watchpoints (and the common case stays hook-free).
        if not 0 <= addr < self.depth:
            raise IndexError(
                f"BlockRAM address {addr:#06x} out of range 0..{self.depth - 1}"
            )
        b = self.banks
        return (
            b[0].data[addr]
            | (b[1].data[addr] << 4)
            | (b[2].data[addr] << 8)
            | (b[3].data[addr] << 12)
        )

    def read_word(self, addr: int) -> int:
        value = self.fetch_word(addr)
        if self.watch is not None:
            self.watch(False, addr, value)
        return value

    def write_word(self, addr: int, value: int) -> None:
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"word {value!r} out of 16-bit range")
        if not 0 <= addr < self.depth:
            raise IndexError(
                f"BlockRAM address {addr:#06x} out of range 0..{self.depth - 1}"
            )
        b = self.banks
        b[0].data[addr] = value & 0xF
        b[1].data[addr] = (value >> 4) & 0xF
        b[2].data[addr] = (value >> 8) & 0xF
        b[3].data[addr] = (value >> 12) & 0xF
        if self.watch is not None:
            self.watch(True, addr, value)

    def load(self, words, base: int = 0) -> None:
        # Bulk image loads (program download, checkpoint restore) are not
        # architectural stores; keep them invisible to data watchpoints.
        hook, self.watch = self.watch, None
        try:
            for i, word in enumerate(words):
                self.write_word(base + i, word & 0xFFFF)
        finally:
            self.watch = hook

    def dump(self, start: int = 0, count: int = None) -> List[int]:
        if count is None:
            count = self.depth - start
        return [self.fetch_word(start + i) for i in range(count)]

"""Processor address decoding (paper Figure 6 and Section 2.4).

The R8 sees one flat 16-bit address space; the Processor IP control
logic decodes it into:

* ``[0, 1024)``      — the local memory,
* ``[1024, 2048)``   — the *other* processor's memory (over the NoC),
* ``[2048, 3072)``   — the remote Memory IP (over the NoC),
* ``FFFDh``          — notify (store only),
* ``FFFEh``          — wait (store only),
* ``FFFFh``          — I/O: store = printf, load = scanf.

(The paper's Figure 6 prints ``globalAddress = 1024 - address``; the
prose makes clear the intended operation is ``address - 1024``, which is
what we implement.)

The map is data-driven so larger platforms (the paper's scalability
argument) can attach one window per extra IP.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from ..r8 import IO_ADDRESS, NOTIFY_ADDRESS, WAIT_ADDRESS


class AccessKind(Enum):
    LOCAL = "local"
    REMOTE = "remote"  # another IP's memory, reached over the NoC
    IO = "io"
    WAIT = "wait"
    NOTIFY = "notify"
    INVALID = "invalid"


@dataclass(frozen=True)
class Window:
    """A remote-memory window: addresses [base, base+size) map onto the
    IP whose NoC header flit is *target_flit*, at offset ``addr - base``."""

    base: int
    size: int
    target_flit: int


@dataclass(frozen=True)
class Access:
    """Decoded access: what kind, and where it lands."""

    kind: AccessKind
    offset: int = 0
    target_flit: Optional[int] = None


class AddressMap:
    """Figure 6's decoder, extensible with extra remote windows."""

    def __init__(self, local_size: int = 1024):
        self.local_size = local_size
        self.windows: List[Window] = []

    def add_window(self, base: int, size: int, target_flit: int) -> None:
        for w in self.windows:
            if base < w.base + w.size and w.base < base + size:
                raise ValueError(
                    f"window [{base:#x},{base + size:#x}) overlaps "
                    f"[{w.base:#x},{w.base + w.size:#x})"
                )
        if base < self.local_size:
            raise ValueError("remote window overlaps local memory")
        self.windows.append(Window(base, size, target_flit))

    def classify(self, addr: int) -> Access:
        if not 0 <= addr <= 0xFFFF:
            raise ValueError(f"address {addr!r} out of 16-bit range")
        if addr == IO_ADDRESS:
            return Access(AccessKind.IO)
        if addr == WAIT_ADDRESS:
            return Access(AccessKind.WAIT)
        if addr == NOTIFY_ADDRESS:
            return Access(AccessKind.NOTIFY)
        if addr < self.local_size:
            return Access(AccessKind.LOCAL, offset=addr)
        for w in self.windows:
            if w.base <= addr < w.base + w.size:
                return Access(
                    AccessKind.REMOTE, offset=addr - w.base, target_flit=w.target_flit
                )
        return Access(AccessKind.INVALID)


def standard_map(
    other_proc_flit: int, remote_mem_flit: int, local_size: int = 1024
) -> AddressMap:
    """The exact MultiNoC map of Figure 6 for one of the two processors."""
    amap = AddressMap(local_size)
    amap.add_window(1024, 1024, other_proc_flit)
    amap.add_window(2048, 1024, remote_mem_flit)
    return amap

"""The host <-> Serial IP byte protocol.

The Serial IP "accepts seven commands.  Four commands are handled by the
host computer: read from memory, write to memory, activate processor,
scanf return.  The other three ... come from the HERMES NoC to the host:
printf, scanf, read return" (paper Section 2.2).

Frames are byte sequences on the RS-232 line.  The read frame matches
the paper's Figure 9 example — the user types ``00 01 01 00 20`` for
"read (00) from P1 processor local memory (01), one position (01),
starting at 0020H" — so the second byte is the NoC address flit of the
target IP.

Host -> board::

    READ          00 target count addr_hi addr_lo
    WRITE         01 target count addr_hi addr_lo (data_hi data_lo)*count
    ACTIVATE      02 target
    SCANF_RETURN  03 target data_hi data_lo

Board -> host::

    READ_RETURN   10 addr_hi addr_lo count (data_hi data_lo)*count
    PRINTF        11 proc count (data_hi data_lo)*count
    SCANF         12 proc
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple

from ..noc.flit import MAX_PAYLOAD_FLITS, split_word, words_to_flits

#: The auto-baud synchronisation byte (paper Section 4).
SYNC_BYTE = 0x55

#: Words one WRITE frame may carry: the Serial IP forwards it as one NoC
#: write packet, whose payload is 4 flits plus 2 per word.
MAX_WRITE_WORDS = (MAX_PAYLOAD_FLITS - 4) // 2


class HostCommand(IntEnum):
    READ = 0x00
    WRITE = 0x01
    ACTIVATE = 0x02
    SCANF_RETURN = 0x03


class BoardReply(IntEnum):
    READ_RETURN = 0x10
    PRINTF = 0x11
    SCANF = 0x12


class ProtocolError(Exception):
    """A malformed frame arrived on the serial line."""


# -- host-side frame builders --------------------------------------------------


def frame_read(target: int, address: int, count: int) -> List[int]:
    if not 1 <= count <= 0xFF:
        raise ProtocolError(f"read count {count} out of range 1..255")
    hi, lo = split_word(address)
    return [HostCommand.READ, target, count, hi, lo]


def frame_write(target: int, address: int, words: Sequence[int]) -> List[int]:
    _check_write_count(len(words))
    hi, lo = split_word(address)
    return [HostCommand.WRITE, target, len(words), hi, lo, *words_to_flits(words)]


def frame_activate(target: int) -> List[int]:
    return [HostCommand.ACTIVATE, target]


def frame_scanf_return(target: int, value: int) -> List[int]:
    hi, lo = split_word(value)
    return [HostCommand.SCANF_RETURN, target, hi, lo]


# -- incremental frame parsing ----------------------------------------------------


def _check_write_count(count: int) -> None:
    if not 1 <= count <= MAX_WRITE_WORDS:
        raise ProtocolError(
            f"write count {count} out of range 1..{MAX_WRITE_WORDS}"
        )


def host_frame_length(buffer: Sequence[int]) -> Optional[int]:
    """Total length of the host->board frame starting *buffer*, or None
    if more bytes are needed to know.  A command byte or a READ or WRITE
    word count the Serial IP cannot forward raises :class:`ProtocolError`."""
    if not buffer:
        return None
    cmd = buffer[0]
    if cmd == HostCommand.READ:
        if len(buffer) > 2 and buffer[2] == 0:
            raise ProtocolError("read count 0 out of range 1..255")
        return 5
    if cmd == HostCommand.WRITE:
        if len(buffer) < 3:
            return None
        _check_write_count(buffer[2])
        return 5 + 2 * buffer[2]
    if cmd == HostCommand.ACTIVATE:
        return 2
    if cmd == HostCommand.SCANF_RETURN:
        return 4
    raise ProtocolError(f"unknown host command byte {cmd:#04x}")


def board_frame_length(buffer: Sequence[int]) -> Optional[int]:
    """Total length of the board->host frame starting *buffer*."""
    if not buffer:
        return None
    cmd = buffer[0]
    if cmd == BoardReply.READ_RETURN:
        if len(buffer) < 4:
            return None
        return 4 + 2 * buffer[3]
    if cmd == BoardReply.PRINTF:
        if len(buffer) < 3:
            return None
        return 3 + 2 * buffer[2]
    if cmd == BoardReply.SCANF:
        return 2
    raise ProtocolError(f"unknown board reply byte {cmd:#04x}")


# -- decoded board replies (host side) -----------------------------------------------


@dataclass
class ReadReturnFrame:
    address: int
    words: List[int]


@dataclass
class PrintfFrame:
    proc: int
    words: List[int]


@dataclass
class ScanfFrame:
    proc: int


def parse_board_frame(frame: Sequence[int]):
    """Parse a complete board->host frame into its dataclass."""
    cmd = frame[0]
    if cmd == BoardReply.READ_RETURN:
        count = frame[3]
        words = [
            (frame[4 + 2 * i] << 8) | frame[5 + 2 * i] for i in range(count)
        ]
        return ReadReturnFrame(address=(frame[1] << 8) | frame[2], words=words)
    if cmd == BoardReply.PRINTF:
        count = frame[2]
        words = [
            (frame[3 + 2 * i] << 8) | frame[4 + 2 * i] for i in range(count)
        ]
        return PrintfFrame(proc=frame[1], words=words)
    if cmd == BoardReply.SCANF:
        return ScanfFrame(proc=frame[1])
    raise ProtocolError(f"unknown board reply byte {cmd:#04x}")

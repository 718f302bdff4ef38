"""The R8 soft-core processor: ISA, assembler, simulators, debugger.

Two execution models are provided: :class:`R8Simulator` (fast,
functional, with debugging aids — the paper's "R8 Simulator" tool) and
:class:`R8Cpu` (cycle-accurate multicycle FSM used inside the MultiNoC
system model).  Both run every instruction through :mod:`.semantics`;
differential tests check that they also agree on cycle counts.
"""

from . import alu, isa, semantics
from .assembler import AsmError, Assembler, ObjectCode, assemble
from .bus import LocalBus, MemoryBus, Transaction
from .cpu import R8Cpu
from .debugger import Debugger, DebuggerError
from .disassembler import disassemble, disassemble_word, format_instruction
from .simulator import (
    IO_ADDRESS,
    NOTIFY_ADDRESS,
    WAIT_ADDRESS,
    R8Simulator,
    SimulatorError,
)
from .state import N_REGS, RESET_SP, R8State

__all__ = [
    "AsmError",
    "Assembler",
    "IO_ADDRESS",
    "LocalBus",
    "MemoryBus",
    "N_REGS",
    "NOTIFY_ADDRESS",
    "ObjectCode",
    "Debugger",
    "DebuggerError",
    "R8Cpu",
    "R8Simulator",
    "R8State",
    "RESET_SP",
    "SimulatorError",
    "Transaction",
    "WAIT_ADDRESS",
    "alu",
    "assemble",
    "disassemble",
    "disassemble_word",
    "format_instruction",
    "isa",
    "semantics",
]

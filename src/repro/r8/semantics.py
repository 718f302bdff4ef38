"""The one definition of what each R8 instruction does.

Both execution models run every instruction through this module: the
instruction-set simulator calls :func:`execute` once per instruction,
and the cycle-accurate :class:`~repro.r8.cpu.R8Cpu` calls the same
code from its FSM states.  A memory instruction's effects come in
pieces so the core can put a bus transaction between them:
:func:`read_address` and :func:`land_read` for LD, POP and RTS,
:func:`write_access` for ST, PUSH, JSRR and JSRD.  :func:`execute`
chains the same pieces around its ``read``/``write`` callbacks.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from . import alu, isa
from .alu import MASK16
from .state import R8State

ReadFn = Callable[[int], int]
WriteFn = Callable[[int, int], None]


def condition_met(state: R8State, cond: int) -> bool:
    """Evaluate a jump-group condition nibble against the flags."""
    flag = isa.COND_FLAG[cond]
    if not flag:
        return True
    return getattr(state.flags, flag)


def read_address(state: R8State, instr: isa.Instruction) -> int:
    """The address an LD, POP or RTS reads.

    POP and RTS pre-increment SP and read at the incremented value.
    """
    if instr.spec.mnemonic == "LD":
        regs = state.regs
        return (regs[instr.rs1] + regs[instr.rs2]) & MASK16
    state.sp = (state.sp + 1) & MASK16
    return state.sp


def land_read(state: R8State, instr: isa.Instruction, value: int) -> None:
    """Deliver an LD, POP or RTS's read data: into PC for RTS, else rt."""
    if instr.spec.mnemonic == "RTS":
        state.pc = value & MASK16
    else:
        state.set_reg(instr.rt, value)


def write_access(state: R8State, instr: isa.Instruction) -> Tuple[int, int]:
    """The (address, value) an ST, PUSH, JSRR or JSRD writes.

    PUSH and JSR write at SP and then post-decrement it; JSR writes the
    return address (the post-fetch PC) and then jumps.
    """
    m = instr.spec.mnemonic
    regs = state.regs
    if m == "ST":
        return (regs[instr.rs1] + regs[instr.rs2]) & MASK16, regs[instr.rt]
    addr = state.sp
    state.sp = (addr - 1) & MASK16
    if m == "PUSH":
        return addr, regs[instr.rs1]
    ret = state.pc
    if m == "JSRR":
        state.pc = regs[instr.rs1]
    else:
        state.pc = (ret + instr.disp) & MASK16
    return addr, ret


def execute(
    state: R8State,
    instr: isa.Instruction,
    read: Optional[ReadFn],
    write: Optional[WriteFn],
) -> None:
    """Execute one decoded instruction against *state*.

    ``state.pc`` must already point at the *next* instruction (the
    hardware increments PC during fetch), which is what displacement
    jumps and JSR return addresses are relative to.  *read* and *write*
    are only called by memory instructions, so callers that execute
    none may pass ``None``.
    """
    spec = instr.spec
    if spec.reads_mem:
        land_read(state, instr, read(read_address(state, instr)))
        return
    if spec.writes_mem:
        write(*write_access(state, instr))
        return
    m = spec.mnemonic
    regs = state.regs
    flags = state.flags

    if m == "ADD":
        state.set_reg(instr.rt, alu.add(regs[instr.rs1], regs[instr.rs2], flags))
    elif m == "ADDC":
        state.set_reg(
            instr.rt,
            alu.add(regs[instr.rs1], regs[instr.rs2], flags, carry_in=int(flags.c)),
        )
    elif m == "SUB":
        state.set_reg(instr.rt, alu.sub(regs[instr.rs1], regs[instr.rs2], flags))
    elif m == "SUBC":
        state.set_reg(
            instr.rt,
            alu.sub(regs[instr.rs1], regs[instr.rs2], flags, borrow_in=int(flags.c)),
        )
    elif m == "AND":
        state.set_reg(instr.rt, alu.logic_and(regs[instr.rs1], regs[instr.rs2], flags))
    elif m == "OR":
        state.set_reg(instr.rt, alu.logic_or(regs[instr.rs1], regs[instr.rs2], flags))
    elif m == "XOR":
        state.set_reg(instr.rt, alu.logic_xor(regs[instr.rs1], regs[instr.rs2], flags))
    elif m == "LDL":
        state.set_reg(instr.rt, (regs[instr.rt] & 0xFF00) | instr.imm)
    elif m == "LDH":
        state.set_reg(instr.rt, (instr.imm << 8) | (regs[instr.rt] & 0x00FF))
    elif m == "NOT":
        state.set_reg(instr.rt, alu.logic_not(regs[instr.rs1], flags))
    elif m == "SL0":
        state.set_reg(instr.rt, alu.shift_left(regs[instr.rs1], 0, flags))
    elif m == "SL1":
        state.set_reg(instr.rt, alu.shift_left(regs[instr.rs1], 1, flags))
    elif m == "SR0":
        state.set_reg(instr.rt, alu.shift_right(regs[instr.rs1], 0, flags))
    elif m == "SR1":
        state.set_reg(instr.rt, alu.shift_right(regs[instr.rs1], 1, flags))
    elif m == "MOV":
        state.set_reg(instr.rt, regs[instr.rs1])
    elif m == "LDSP":
        state.sp = regs[instr.rs1]
    elif m == "RDSP":
        state.set_reg(instr.rt, state.sp)
    elif m in ("JMPR", "JMPNR", "JMPZR", "JMPCR", "JMPVR"):
        if condition_met(state, spec.sub):
            state.pc = regs[instr.rs1]
    elif m in ("JMPD", "JMPND", "JMPZD", "JMPCD", "JMPVD"):
        if condition_met(state, spec.sub):
            state.pc = (state.pc + instr.disp) & MASK16
    elif m == "NOP":
        pass
    elif m == "HALT":
        state.halted = True
    else:  # pragma: no cover - the spec table is closed
        raise NotImplementedError(m)

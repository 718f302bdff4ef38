"""Differential testing: the cycle-accurate core versus the functional ISS.

Both models run every instruction through ``repro.r8.semantics``, so
what this checks is the core's FSM around it: that splitting a memory
instruction across EXEC, a bus transaction and MEM/WRITE keeps the
order of its effects, and that the ISS's CPI table matches the cycles
the FSM spends.  Hypothesis generates random terminating programs over
the whole ISA; both models execute them and must finish in identical
architectural state after identical cycle counts.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.r8 import LocalBus, R8Cpu, R8Simulator, isa
from repro.sim import Simulator

_ALU = ["ADD", "ADDC", "SUB", "SUBC", "AND", "OR", "XOR"]
_RR = ["NOT", "SL0", "SL1", "SR0", "SR1", "MOV"]
_JR = ["JMPR", "JMPNR", "JMPZR", "JMPCR", "JMPVR"]
_JD = ["JMPD", "JMPND", "JMPZD", "JMPCD", "JMPVD"]

#: R14 holds jump and call targets, R15 the SP of an RDSP/LDSP round
#: trip; drawn operands stay in R0..R13 so they never clobber either
reg = st.integers(0, 13)
imm = st.integers(0, 255)
R_TARGET = 14
R_SP = 15


def _word(mnemonic, **fields):
    return isa.encode(isa.Instruction(isa.spec(mnemonic), **fields))


@st.composite
def filler(draw):
    """One register-only instruction that falls through."""
    kind = draw(st.sampled_from(["alu", "rr", "ri", "nop"]))
    if kind == "alu":
        return _word(
            draw(st.sampled_from(_ALU)), rt=draw(reg), rs1=draw(reg), rs2=draw(reg)
        )
    if kind == "rr":
        return _word(draw(st.sampled_from(_RR)), rt=draw(reg), rs1=draw(reg))
    if kind == "ri":
        return _word(draw(st.sampled_from(["LDL", "LDH"])), rt=draw(reg), imm=draw(imm))
    return _word("NOP")


def _load_target(words, target):
    words.append(_word("LDH", rt=R_TARGET, imm=target >> 8))
    words.append(_word("LDL", rt=R_TARGET, imm=target & 0xFF))


@st.composite
def r8_program(draw):
    """A random program over all 36 instructions that always halts.

    Jumps only go forward, over a few fillers whether taken or not.
    Each call targets its own leaf routine, placed after HALT, that
    returns with RTS; pushes and pops come in balanced pairs, so SP stays
    inside memory.
    """
    words = []
    # seed registers with immediates
    for r in range(8):
        words.append(_word("LDH", rt=r, imm=draw(imm)))
        words.append(_word("LDL", rt=r, imm=draw(imm)))
    calls = []  # (index of the JSR word, mnemonic, routine body)
    n = draw(st.integers(0, 40))
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ["filler", "stack", "mem", "jmpd", "jmpr", "call", "sp"]
            )
        )
        if kind == "filler":
            words.append(draw(filler()))
        elif kind == "stack":
            words.append(_word("PUSH", rs1=draw(reg)))
            words.append(_word("POP", rt=draw(reg)))
        elif kind == "mem":
            # memory access at a safe fixed window: clear index regs first
            base = draw(st.integers(0x200, 0x2F0))
            words.append(_word("LDH", rt=12, imm=base >> 8))
            words.append(_word("LDL", rt=12, imm=base & 0xFF))
            words.append(_word("LDH", rt=13, imm=0))
            words.append(_word("LDL", rt=13, imm=draw(st.integers(0, 15))))
            op = draw(st.sampled_from(["ST", "LD"]))
            words.append(_word(op, rt=draw(reg), rs1=12, rs2=13))
        elif kind == "jmpd":
            skipped = draw(st.lists(filler(), max_size=3))
            words.append(_word(draw(st.sampled_from(_JD)), imm=len(skipped)))
            words.extend(skipped)
        elif kind == "jmpr":
            skipped = draw(st.lists(filler(), max_size=3))
            _load_target(words, len(words) + 3 + len(skipped))
            words.append(_word(draw(st.sampled_from(_JR)), rs1=R_TARGET))
            words.extend(skipped)
        elif kind == "call":
            # R14 gets the routine's address (patched below) either way,
            # so a JSRD whose displacement does not fit can become JSRR
            _load_target(words, 0)
            body = draw(st.lists(filler(), max_size=3))
            calls.append((len(words), draw(st.sampled_from(["JSRD", "JSRR"])), body))
            words.append(0)
        else:
            words.append(_word("RDSP", rt=R_SP))
            words.append(_word("LDSP", rs1=R_SP))
    words.append(_word("HALT"))
    for at, mnemonic, body in calls:
        routine = len(words)
        words.extend(body)
        words.append(_word("RTS"))
        words[at - 2] = _word("LDH", rt=R_TARGET, imm=routine >> 8)
        words[at - 1] = _word("LDL", rt=R_TARGET, imm=routine & 0xFF)
        disp = routine - (at + 1)
        if mnemonic == "JSRD" and disp <= 127:
            words[at] = _word("JSRD", imm=disp)
        else:
            words[at] = _word("JSRR", rs1=R_TARGET)
    return words


@settings(max_examples=60, deadline=None)
@given(r8_program())
def test_cycle_cpu_matches_iss(words):
    # functional reference
    iss = R8Simulator()
    iss.load(words)
    iss.activate()
    iss.run(max_instructions=10_000)

    # cycle-accurate model
    bus = LocalBus()
    bus.load(words)
    cpu = R8Cpu("cpu", bus)
    sim = Simulator()
    sim.add(cpu)
    cpu.activate()
    sim.run_until(lambda: cpu.halted, max_cycles=100_000)

    assert cpu.state.regs == iss.state.regs
    assert cpu.state.pc == iss.state.pc
    assert cpu.state.sp == iss.state.sp
    assert cpu.state.flags.as_tuple() == iss.state.flags.as_tuple()
    assert bus.data == iss.memory
    assert cpu.instructions_retired == iss.instructions
    # the ISS cycle accounting mirrors the multicycle FSM exactly
    assert cpu.cycles_active == iss.cycles


@settings(max_examples=30, deadline=None)
@given(r8_program())
def test_cpi_always_within_paper_bounds(words):
    iss = R8Simulator()
    iss.load(words)
    iss.activate()
    iss.run(max_instructions=10_000)
    assert 2.0 <= iss.cpi() <= 4.0


def test_generator_draws_every_instruction():
    """The property above covers the whole ISA, not a subset."""
    drawn = set()

    @seed(0)
    @settings(max_examples=60, database=None, deadline=None)
    @given(r8_program())
    def collect(words):
        drawn.update(isa.decode(w).mnemonic for w in words)

    collect()
    assert drawn == set(isa.SPECS)

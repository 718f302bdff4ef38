"""Cycle-accurate multicycle model of the R8 soft core.

The core is a classic multicycle FSM ("CPI (Clocks Per Instruction)
between 2 and 4", paper Section 2.4):

=============  ====================================  ===
instructions   states                                CPI
=============  ====================================  ===
ALU, moves,    FETCH, EXEC                            2
jumps, NOP
ST, PUSH,      FETCH, EXEC, WRITE                     3
JSRR, JSRD
LD, POP, RTS   FETCH, EXEC, MEM, MEM(latch)           4
=============  ====================================  ===

A data access that the environment cannot complete immediately (remote
memory, I/O, wait/notify — anything crossing the NoC) leaves its
:class:`~repro.r8.bus.Transaction` pending, and the core simply stays in
its MEM/WRITE state: that *is* the ``waitR8`` stall of Figure 5.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Component
from . import alu, isa
from .alu import MASK16
from .bus import MemoryBus, Transaction
from .semantics import condition_met
from .state import R8State

S_HALT = 0
S_FETCH = 1
S_EXEC = 2
S_MEM = 3
S_WRITE = 4

_STATE_NAMES = {
    S_HALT: "HALT",
    S_FETCH: "FETCH",
    S_EXEC: "EXEC",
    S_MEM: "MEM",
    S_WRITE: "WRITE",
}

#: mnemonics whose MEM-state result lands in PC instead of a register
_MEM_TO_PC = frozenset(["RTS"])


class R8Cpu(Component):
    """One R8 core attached to a :class:`~repro.r8.bus.MemoryBus`.

    The core powers up halted; :meth:`activate` (driven by the "activate
    processor" packet service) starts execution at address 0.
    """

    def __init__(self, name: str, bus: MemoryBus):
        super().__init__(name)
        self.bus = bus
        self.state = R8State()
        self._fsm = S_HALT
        self._instr: Optional[isa.Instruction] = None
        self._txn: Optional[Transaction] = None
        self._mem_settle = 0
        #: externally forced stall (the "wait" *packet* service): while
        #: True the core idles at its next fetch boundary.
        self.paused = False
        # performance counters
        self.cycles_active = 0
        self.cycles_stalled = 0
        self.instructions_retired = 0
        #: optional TelemetrySink; one None-check per active cycle
        self.sink = None
        self._now = 0
        self._burst_start: Optional[int] = None
        self._burst_base = 0
        self._stall_start: Optional[int] = None
        #: optional PC sampling: ``(call_stack, pc) -> cycles`` when
        #: enabled, ``None`` otherwise (one None-check per active cycle).
        #: ``call_stack`` is the tuple of call-site PCs of the JSR chain
        #: currently live, so samples fold into real flame-graph stacks.
        self.pc_samples: Optional[dict] = None
        self._cur_pc = 0
        self._call_key: tuple = ()

    # -- control ------------------------------------------------------------

    def activate(self) -> None:
        """Start (or restart) execution from local address 0."""
        self.state.activate()
        self._fsm = S_FETCH
        self._instr = None
        self._txn = None
        if self.pc_samples is not None:
            self._call_key = ()
            self._cur_pc = 0
        self.wake()

    def enable_pc_sampling(self) -> None:
        """Turn on per-PC cycle sampling (the post-mortem profiler feed).

        Every active cycle is charged to ``(call_stack, pc)``; the
        accumulated counts are flushed as ``pcsample`` trace events by
        :meth:`flush_pc_samples`.  Sampling never changes architectural
        behaviour — it only reads the FSM.
        """
        if self.pc_samples is None:
            self.pc_samples = {}

    def flush_pc_samples(self) -> int:
        """Emit accumulated PC samples as ``pcsample`` instants and clear.

        Returns the number of distinct ``(stack, pc)`` buckets flushed.
        No-op (returning 0) when sampling is disabled or no sink is
        attached.
        """
        if self.pc_samples is None or self.sink is None or not self.pc_samples:
            return 0
        buckets = sorted(self.pc_samples.items())
        for (stack, pc), cycles in buckets:
            self.sink.instant(
                self.name,
                "pcsample",
                self._now,
                stack=list(stack),
                pc=pc,
                cycles=cycles,
            )
        self.pc_samples = {}
        return len(buckets)

    @property
    def halted(self) -> bool:
        return self._fsm == S_HALT

    @property
    def stalled(self) -> bool:
        """True while a pending bus transaction is blocking the core."""
        return (
            self._txn is not None
            and not self._txn.done
            and self._fsm in (S_MEM, S_WRITE)
            and self._mem_settle == 0
        )

    @property
    def sleepable(self) -> bool:
        """True when the next eval cannot change core state: halted,
        paused at a fetch boundary (the "wait" service), or stalled on a
        bus transaction that only an external event can complete.  Used
        by the enclosing IP's quiescence predicate; skipped cycles are
        re-credited through :meth:`credit_idle_cycles`."""
        if self._fsm == S_HALT:
            return True
        if self._fsm == S_FETCH:
            return self.paused
        return self.stalled

    def credit_idle_cycles(self, n: int) -> None:
        """Account *n* kernel-skipped idle evals exactly as lock-step
        evaluation would have: a halted core counts nothing; a paused or
        stalled core accrues active+stalled cycles and PC samples."""
        if n <= 0 or self._fsm == S_HALT:
            return
        self.cycles_active += n
        self.cycles_stalled += n
        if self.sink is not None and self._stall_start is None:
            # the core slept from the cycle after its last eval, and
            # lock-step's stall span opens there
            self._stall_start = self._now + 1
        if self.pc_samples is not None:
            pc = self.state.pc if self._fsm == S_FETCH else self._cur_pc
            key = (self._call_key, pc)
            self.pc_samples[key] = self.pc_samples.get(key, 0) + n

    @property
    def fsm_state(self) -> str:
        return _STATE_NAMES[self._fsm]

    @property
    def progress(self) -> tuple:
        """(pc, instructions retired) — changes iff the core advances.

        The CPU stall watchdog compares successive readings: an active
        core whose progress tuple stays frozen is wedged (a never-answered
        scanf, a lost read return, a wait with no notify...).
        """
        return (self.state.pc, self.instructions_retired)

    def cpi(self) -> float:
        """Measured clocks per instruction since reset."""
        if self.instructions_retired == 0:
            return 0.0
        return self.cycles_active / self.instructions_retired

    # -- simulation -----------------------------------------------------------

    def reset(self) -> None:
        super().reset()
        self.state.reset()
        self._fsm = S_HALT
        self._instr = None
        self._txn = None
        self._mem_settle = 0
        self.paused = False
        self.cycles_active = 0
        self.cycles_stalled = 0
        self.instructions_retired = 0
        self._burst_start = None
        self._stall_start = None
        if self.pc_samples is not None:
            self.pc_samples = {}
        self._call_key = ()
        self._cur_pc = 0

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        st = self.state
        txn = self._txn
        return {
            "regs": list(st.regs),
            "pc": st.pc,
            "sp": st.sp,
            "flags": list(st.flags.as_tuple()),
            "halted": st.halted,
            "fsm": self._fsm,
            "instr": None if self._instr is None else isa.encode(self._instr),
            "txn": (
                None
                if txn is None
                else [txn.is_write, txn.addr, txn.value, txn.done]
            ),
            "mem_settle": self._mem_settle,
            "paused": self.paused,
            "cycles_active": self.cycles_active,
            "cycles_stalled": self.cycles_stalled,
            "instructions_retired": self.instructions_retired,
            "now": self._now,
            "burst_start": self._burst_start,
            "burst_base": self._burst_base,
            "stall_start": self._stall_start,
            "pc_samples": (
                None
                if self.pc_samples is None
                else [
                    [list(stack), pc, n]
                    for (stack, pc), n in sorted(self.pc_samples.items())
                ]
            ),
            "cur_pc": self._cur_pc,
            "call_key": list(self._call_key),
        }

    def restore_state(self, state: dict) -> None:
        st = self.state
        st.regs[:] = state["regs"]
        st.pc = state["pc"]
        st.sp = state["sp"]
        n, z, c, v = state["flags"]
        st.flags.n, st.flags.z, st.flags.c, st.flags.v = n, z, c, v
        st.halted = state["halted"]
        self._fsm = state["fsm"]
        instr = state["instr"]
        self._instr = None if instr is None else isa.decode(instr)
        txn = state["txn"]
        if txn is None:
            self._txn = None
        else:
            is_write, addr, value, done = txn
            t = Transaction(is_write, addr, value)
            t.done = done
            self._txn = t
        self._mem_settle = state["mem_settle"]
        self.paused = state["paused"]
        self.cycles_active = state["cycles_active"]
        self.cycles_stalled = state["cycles_stalled"]
        self.instructions_retired = state["instructions_retired"]
        self._now = state["now"]
        self._burst_start = state["burst_start"]
        self._burst_base = state["burst_base"]
        self._stall_start = state["stall_start"]
        samples = state["pc_samples"]
        if samples is None:
            self.pc_samples = None
        else:
            self.pc_samples = {
                (tuple(stack), pc): n for stack, pc, n in samples
            }
        self._cur_pc = state["cur_pc"]
        self._call_key = tuple(state["call_key"])

    def eval(self, cycle: int) -> None:
        if self._fsm == S_HALT:
            return
        self.cycles_active += 1
        if self.sink is not None:
            self._telemetry_tick(cycle)
        if self.pc_samples is not None:
            # FETCH cycles (and pause-at-fetch stalls) belong to the
            # instruction about to be fetched; later FSM states to the
            # instruction fetched earlier.
            pc = self.state.pc if self._fsm == S_FETCH else self._cur_pc
            key = (self._call_key, pc)
            self.pc_samples[key] = self.pc_samples.get(key, 0) + 1
        if self._fsm == S_FETCH:
            if self.paused:
                self.cycles_stalled += 1
                return
            self._do_fetch()
        elif self._fsm == S_EXEC:
            self._do_exec()
        elif self._fsm == S_MEM:
            self._do_mem()
        elif self._fsm == S_WRITE:
            self._do_write()

    # -- FSM states --------------------------------------------------------------

    def _do_fetch(self) -> None:
        if self.pc_samples is not None:
            self._cur_pc = self.state.pc
        word = self.bus.fetch(self.state.pc)
        self._instr = isa.decode(word)
        self.state.pc = (self.state.pc + 1) & MASK16
        self._fsm = S_EXEC

    def _retire(self, next_state: int = S_FETCH) -> None:
        self.instructions_retired += 1
        self._instr = None
        self._txn = None
        self._fsm = next_state
        if next_state == S_HALT and self.sink is not None:
            self._end_burst()

    # -- telemetry (all under a single `if self.sink` in eval) ---------------

    def _telemetry_tick(self, cycle: int) -> None:
        """Track execution bursts and stall spans; runs once per active
        cycle, only while a sink is attached."""
        self._now = cycle
        if self._burst_start is None:
            self._burst_start = cycle
            self._burst_base = self.instructions_retired
            self.sink.instant(self.name, "activate", cycle)
        stalled = self.stalled or (self.paused and self._fsm == S_FETCH)
        if stalled:
            if self._stall_start is None:
                self._stall_start = cycle
        elif self._stall_start is not None:
            self.sink.complete(
                self.name,
                "stall",
                self._stall_start,
                cycle - self._stall_start,
            )
            self._stall_start = None

    def _end_burst(self) -> None:
        if self._burst_start is None:
            return
        self.sink.complete(
            self.name,
            "exec",
            self._burst_start,
            self._now + 1 - self._burst_start,
            retired=self.instructions_retired - self._burst_base,
        )
        self._burst_start = None

    def _do_exec(self) -> None:
        instr = self._instr
        assert instr is not None
        st = self.state
        regs = st.regs
        flags = st.flags
        m = instr.mnemonic

        if m == "ADD":
            st.set_reg(instr.rt, alu.add(regs[instr.rs1], regs[instr.rs2], flags))
        elif m == "ADDC":
            st.set_reg(
                instr.rt,
                alu.add(regs[instr.rs1], regs[instr.rs2], flags, carry_in=int(flags.c)),
            )
        elif m == "SUB":
            st.set_reg(instr.rt, alu.sub(regs[instr.rs1], regs[instr.rs2], flags))
        elif m == "SUBC":
            st.set_reg(
                instr.rt,
                alu.sub(regs[instr.rs1], regs[instr.rs2], flags, borrow_in=int(flags.c)),
            )
        elif m == "AND":
            st.set_reg(instr.rt, alu.logic_and(regs[instr.rs1], regs[instr.rs2], flags))
        elif m == "OR":
            st.set_reg(instr.rt, alu.logic_or(regs[instr.rs1], regs[instr.rs2], flags))
        elif m == "XOR":
            st.set_reg(instr.rt, alu.logic_xor(regs[instr.rs1], regs[instr.rs2], flags))
        elif m == "LDL":
            st.set_reg(instr.rt, (regs[instr.rt] & 0xFF00) | instr.imm)
        elif m == "LDH":
            st.set_reg(instr.rt, (instr.imm << 8) | (regs[instr.rt] & 0x00FF))
        elif m == "NOT":
            st.set_reg(instr.rt, alu.logic_not(regs[instr.rs1], flags))
        elif m == "SL0":
            st.set_reg(instr.rt, alu.shift_left(regs[instr.rs1], 0, flags))
        elif m == "SL1":
            st.set_reg(instr.rt, alu.shift_left(regs[instr.rs1], 1, flags))
        elif m == "SR0":
            st.set_reg(instr.rt, alu.shift_right(regs[instr.rs1], 0, flags))
        elif m == "SR1":
            st.set_reg(instr.rt, alu.shift_right(regs[instr.rs1], 1, flags))
        elif m == "MOV":
            st.set_reg(instr.rt, regs[instr.rs1])
        elif m == "LDSP":
            st.sp = regs[instr.rs1]
        elif m == "RDSP":
            st.set_reg(instr.rt, st.sp)
        elif m == "NOP":
            pass
        elif m == "HALT":
            st.halted = True
            self._retire(S_HALT)
            return
        elif m in ("JMPR", "JMPNR", "JMPZR", "JMPCR", "JMPVR"):
            if condition_met(st, instr.spec.sub):
                st.pc = regs[instr.rs1]
        elif m in ("JMPD", "JMPND", "JMPZD", "JMPCD", "JMPVD"):
            if condition_met(st, instr.spec.sub):
                st.pc = (st.pc + instr.disp) & MASK16
        elif m == "LD":
            addr = (regs[instr.rs1] + regs[instr.rs2]) & MASK16
            self._txn = self.bus.read(addr)
            self._mem_settle = 1
            self._fsm = S_MEM
            return
        elif m == "POP":
            st.sp = (st.sp + 1) & MASK16
            self._txn = self.bus.read(st.sp)
            self._mem_settle = 1
            self._fsm = S_MEM
            return
        elif m == "RTS":
            st.sp = (st.sp + 1) & MASK16
            self._txn = self.bus.read(st.sp)
            self._mem_settle = 1
            self._fsm = S_MEM
            return
        elif m == "ST":
            addr = (regs[instr.rs1] + regs[instr.rs2]) & MASK16
            self._txn = self.bus.write(addr, regs[instr.rt])
            self._fsm = S_WRITE
            return
        elif m == "PUSH":
            self._txn = self.bus.write(st.sp, regs[instr.rs1])
            st.sp = (st.sp - 1) & MASK16
            self._fsm = S_WRITE
            return
        elif m in ("JSRR", "JSRD"):
            if self.pc_samples is not None:
                self._call_key = self._call_key + (self._cur_pc,)
            self._txn = self.bus.write(st.sp, st.pc)
            st.sp = (st.sp - 1) & MASK16
            if m == "JSRR":
                st.pc = regs[instr.rs1]
            else:
                st.pc = (st.pc + instr.disp) & MASK16
            self._fsm = S_WRITE
            return
        else:  # pragma: no cover - the spec table is closed
            raise NotImplementedError(m)
        self._retire()

    def _do_mem(self) -> None:
        if self._mem_settle > 0:
            self._mem_settle -= 1
            return
        txn = self._txn
        assert txn is not None
        if not txn.done:
            self.cycles_stalled += 1
            return
        instr = self._instr
        assert instr is not None
        if instr.mnemonic in _MEM_TO_PC:
            self.state.pc = txn.value & MASK16
            if self.pc_samples is not None and self._call_key:
                self._call_key = self._call_key[:-1]
        else:
            self.state.set_reg(instr.rt, txn.value)
        self._retire()

    def _do_write(self) -> None:
        txn = self._txn
        assert txn is not None
        if not txn.done:
            self.cycles_stalled += 1
            return
        self._retire()

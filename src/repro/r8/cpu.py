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

What an instruction does is defined once, in :mod:`repro.r8.semantics`,
which the instruction-set simulator runs too.  The core adds only the
timing: EXEC runs a register-only instruction through
:func:`~repro.r8.semantics.execute`; a memory instruction (the
``reads_mem``/``writes_mem`` flags of :data:`repro.r8.isa.SPECS`) gets
its address from the semantics helpers, goes out as a bus transaction,
and a read lands through :func:`~repro.r8.semantics.land_read` in MEM.

A data access that the environment cannot complete immediately (remote
memory, I/O, wait/notify — anything crossing the NoC) leaves its
:class:`~repro.r8.bus.Transaction` pending, and the core simply stays in
its MEM/WRITE state: that *is* the ``waitR8`` stall of Figure 5.

The enclosing unit may sleep through cycles in which the core only
stalls or spins in a poll loop (see
:class:`~repro.system.processor_ip.ProcessorIp`); the skipped cycles
are credited later.  The public reads (the three counters, ``pc``,
``progress``, ``fsm_state`` and ``state``) credit that span up to the
kernel's cycle first, so they return what lock-step evaluation would
show at any cycle boundary.  EXEC flags a taken backward jump in
``back_jump`` for the spin detector.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Component
from . import isa, semantics
from .alu import MASK16
from .bus import MemoryBus, Transaction
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

#: mnemonics that push a frame onto the PC-sample call stack (RTS pops)
_CALLS = frozenset(["JSRR", "JSRD"])


class R8Cpu(Component):
    """One R8 core attached to a :class:`~repro.r8.bus.MemoryBus`.

    The core powers up halted; :meth:`activate` (driven by the "activate
    processor" packet service) starts execution at address 0.
    """

    def __init__(self, name: str, bus: MemoryBus):
        super().__init__(name)
        self.bus = bus
        self._state = R8State()
        self._fsm = S_HALT
        self._instr: Optional[isa.Instruction] = None
        self._txn: Optional[Transaction] = None
        self._mem_settle = 0
        #: externally forced stall (the "wait" *packet* service): while
        #: True the core idles at its next fetch boundary.
        self.paused = False
        # performance counters, as of the last evaluated cycle; the
        # public properties read them current (see _current)
        self._cycles_active = 0
        self._cycles_stalled = 0
        self._instructions_retired = 0
        #: set by EXEC when a taken jump moves the PC backwards; the
        #: enclosing IP's spin detector reads and clears it
        self.back_jump = False
        #: something besides the instruction stream may have changed
        #: what the core holds or reads since the last backward jump: a
        #: direct change here, or a store, packet or load the bus owner
        #: saw.  The spin detector resets it at each backward jump.
        self.spin_dirty = True
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
        self._current()
        self.spin_dirty = True
        self._state.activate()
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
        self._cycles_active += n
        self._cycles_stalled += n
        if self.sink is not None and self._stall_start is None:
            # the core slept from the cycle after its last eval, and
            # lock-step's stall span opens there
            self._stall_start = self._now + 1
        if self.pc_samples is not None:
            pc = self._state.pc if self._fsm == S_FETCH else self._cur_pc
            key = (self._call_key, pc)
            self.pc_samples[key] = self.pc_samples.get(key, 0) + n

    def credit_loop(
        self, periods: int, cycles: int, retired: int, stalled: int
    ) -> None:
        """Account *periods* whole iterations of a loop that returns to
        the same state every *cycles* cycles, retiring *retired*
        instructions and stalling *stalled* cycles per iteration: what
        evaluating them would count (the spin sleep of the enclosing
        IP)."""
        self._cycles_active += periods * cycles
        self._instructions_retired += periods * retired
        self._cycles_stalled += periods * stalled

    def counters(self) -> tuple:
        """(cycles active, instructions retired, cycles stalled) as of
        the last evaluated cycle, without crediting a sleep span."""
        return (
            self._cycles_active,
            self._instructions_retired,
            self._cycles_stalled,
        )

    def spin_key(self) -> tuple:
        """Everything an instruction reads besides memory: equal keys
        at two fetch boundaries, with memory unchanged in between, mean
        the core runs the same loop again."""
        st = self._state
        return (st.pc, tuple(st.regs), st.sp, st.flags.as_tuple())

    # -- public reads: current at the kernel's cycle -----------------------

    def _current(self) -> None:
        """Credit the enclosing unit's open sleep span up to the
        kernel's cycle, so that a read between cycles returns what
        lock-step evaluation would show there."""
        unit = self._sched
        if unit is not None and unit._slept_since is not None:
            unit._kernel.settle_unit(unit)

    @property
    def cycles_active(self) -> int:
        self._current()
        return self._cycles_active

    @property
    def cycles_stalled(self) -> int:
        self._current()
        return self._cycles_stalled

    @property
    def instructions_retired(self) -> int:
        self._current()
        return self._instructions_retired

    @property
    def state(self) -> R8State:
        """The architectural registers, current at the kernel's cycle.

        The object is mutable, so handing it out counts as a direct
        mutation: a sleeping core is credited up to now and woken.
        """
        self._current()
        self.spin_dirty = True
        self.wake()
        return self._state

    @property
    def pc(self) -> int:
        """The program counter, current at the kernel's cycle."""
        self._current()
        return self._state.pc

    @property
    def fsm_state(self) -> str:
        self._current()
        return _STATE_NAMES[self._fsm]

    @property
    def progress(self) -> tuple:
        """(pc, instructions retired) — changes iff the core advances.

        The CPU stall watchdog compares successive readings: an active
        core whose progress tuple stays frozen is wedged (a never-answered
        scanf, a lost read return, a wait with no notify...).  A core
        spinning in a poll loop advances: its instructions retire.
        """
        self._current()
        return (self._state.pc, self._instructions_retired)

    def cpi(self) -> float:
        """Measured clocks per instruction since reset."""
        retired = self.instructions_retired
        if retired == 0:
            return 0.0
        return self._cycles_active / retired

    # -- simulation -----------------------------------------------------------

    def reset(self) -> None:
        self._current()
        super().reset()
        self._state.reset()
        self._fsm = S_HALT
        self._instr = None
        self._txn = None
        self._mem_settle = 0
        self.paused = False
        self._cycles_active = 0
        self._cycles_stalled = 0
        self._instructions_retired = 0
        self.back_jump = False
        self.spin_dirty = True
        self._burst_start = None
        self._stall_start = None
        if self.pc_samples is not None:
            self.pc_samples = {}
        self._call_key = ()
        self._cur_pc = 0
        self.wake()

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        st = self._state
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
            "cycles_active": self._cycles_active,
            "cycles_stalled": self._cycles_stalled,
            "instructions_retired": self._instructions_retired,
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
        st = self._state
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
        self._cycles_active = state["cycles_active"]
        self._cycles_stalled = state["cycles_stalled"]
        self._instructions_retired = state["instructions_retired"]
        self.back_jump = False
        self.spin_dirty = True
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
        self._cycles_active += 1
        if self.sink is not None:
            self._telemetry_tick(cycle)
        if self.pc_samples is not None:
            # FETCH cycles (and pause-at-fetch stalls) belong to the
            # instruction about to be fetched; later FSM states to the
            # instruction fetched earlier.
            pc = self._state.pc if self._fsm == S_FETCH else self._cur_pc
            key = (self._call_key, pc)
            self.pc_samples[key] = self.pc_samples.get(key, 0) + 1
        if self._fsm == S_FETCH:
            if self.paused:
                self._cycles_stalled += 1
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
            self._cur_pc = self._state.pc
        word = self.bus.fetch(self._state.pc)
        self._instr = isa.decode(word)
        self._state.pc = (self._state.pc + 1) & MASK16
        self._fsm = S_EXEC

    def _retire(self, next_state: int = S_FETCH) -> None:
        self._instructions_retired += 1
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
            self._burst_base = self._instructions_retired
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
            retired=self._instructions_retired - self._burst_base,
        )
        self._burst_start = None

    def _do_exec(self) -> None:
        instr = self._instr
        assert instr is not None
        spec = instr.spec
        st = self._state
        if spec.reads_mem:
            self._txn = self.bus.read(semantics.read_address(st, instr))
            self._mem_settle = 1
            self._fsm = S_MEM
        elif spec.writes_mem:
            if self.pc_samples is not None and spec.mnemonic in _CALLS:
                self._call_key = self._call_key + (self._cur_pc,)
            self._txn = self.bus.write(*semantics.write_access(st, instr))
            self._fsm = S_WRITE
        else:
            pc = st.pc
            semantics.execute(st, instr, None, None)
            if st.pc < pc:
                self.back_jump = True
            self._retire(S_HALT if st.halted else S_FETCH)

    def _do_mem(self) -> None:
        if self._mem_settle > 0:
            self._mem_settle -= 1
            return
        txn = self._txn
        assert txn is not None
        if not txn.done:
            self._cycles_stalled += 1
            return
        instr = self._instr
        assert instr is not None
        semantics.land_read(self._state, instr, txn.value)
        if (
            self.pc_samples is not None
            and self._call_key
            and instr.mnemonic == "RTS"
        ):
            self._call_key = self._call_key[:-1]
        self._retire()

    def _do_write(self) -> None:
        txn = self._txn
        assert txn is not None
        if not txn.done:
            self._cycles_stalled += 1
            return
        self._retire()

"""Cycle-based simulation kernel.

The kernel owns a set of top-level :class:`~repro.sim.component.Component`
instances and evaluates them once per cycle, like synchronous RTL.  It
has no commit phase: every channel between components latches itself.
A :class:`~repro.sim.wire.Wire` and a Hermes link
(:class:`~repro.noc.mesh.Link`) stamp the cycle of each change, and the
other end sees it from the next cycle on, in either evaluation order.

Historically every component was evaluated every cycle.  The kernel is
now *quiescence-aware*: at elaboration it flattens the component tree
into schedulable units (components overriding ``eval``).  A unit's eval
returns when it is next due (see
:class:`~repro.sim.component.Component`): ``None`` keeps it awake, a
cycle puts it to sleep until that cycle's wake, and
:data:`~repro.sim.component.SLEEP` until something it reads changes or
an external call wakes it.  When *every* unit sleeps, the kernel
fast-forwards ``self.cycle`` straight to the earliest wake (or the
step/run budget) instead of spinning.

Per-cycle kernel cost depends only on the units that are awake.  The
loop walks a *run list*: the awake units in elaboration order.  Each
unit's ``_awake`` flag stays the truth (``wake()`` only flips it and
queues the unit); the list is rebuilt from the flags at elaboration,
``reset`` and ``restore``, and patched only in cycles where some unit
slept or woke.  A unit woken during another unit's eval runs in that
same cycle when it comes later in elaboration order and in the next
cycle when it comes earlier, exactly as in lock-step.  ``step`` and
``run_until`` drive the same loop, which re-elaborates as soon as the
wiring is invalidated, even in the middle of a run.

Next-cycle wakes: a change made during one unit's eval and read by
another is seen from the next cycle on, so it wakes the reader's unit
with :meth:`Simulator.wake_next`, which holds the wake for the next
cycle wherever the two sit in elaboration order.  The Hermes fabric
(:class:`~repro.noc.mesh.Mesh`) marks a network interface due this way,
and a serial line hands its receiver each edge
(:meth:`~repro.serial.uart.UartRx.edge`), which logs it mid-frame or
makes the receiver due.  The reader's unit may not have evaluated yet
in the cycle of the change, so the member's due keeps that eval from
putting the unit to sleep past it.

The results are cycle-exact with respect to the legacy schedule: a
sleeping unit's evals would by contract only count (or, for an R8 core
in a poll loop, repeat the loop), and one
:meth:`~repro.sim.component.Component.credit` accounts every skipped
span: the kernel calls it on a unit coming back from sleep, and
:meth:`Simulator.settle` (which :meth:`Simulator.snapshot` calls) on
every component, so per-cycle counters (CPU and router stall
accounting, PC samples) match bit for bit.  A component that must read
current between cycles (an R8 core's counters and PC) credits its own
unit.  ``Simulator(strict_lockstep=True)`` keeps the original
evaluate-everything loop as the reference the A/B equivalence tests
compare against.  Host time is
attributed by the sampling :class:`~repro.telemetry.hostperf.
HostPerfProfiler`, which observes this thread from the side and never
alters which loop runs.

Observers use one hook, :meth:`Simulator.add_watcher`.  A plain watcher
runs after every evaluated cycle and once at the landing cycle of a
fast-forwarded span (state is frozen during the span, so change-based
tracers/VCD observe nothing, same as lock-step).  A watcher added with
``stride=k`` runs at every multiple of k; inside a skipped span the
kernel replays those multiples before the landing-cycle pass, so health
watchdogs and live frames keep their cadence.  The
``ff_spans``/``ff_cycles`` counters record every skipped span exactly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, merge
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .component import SLEEP, Component, SnapshotError


def stride_points(start: int, end: int, stride: int) -> Iterator[int]:
    """Multiples of *stride* strictly inside ``(start, end)``.

    The canonical replay schedule for strided observers across a
    fast-forwarded idle span: every stride boundary the lock-step loop
    would have hit, excluding *end* (the landing cycle gets the regular
    watcher pass).
    """
    c = start - start % stride + stride if start % stride else start + stride
    while c < end:
        yield c
        c += stride


_UIDX = attrgetter("_uidx")


class SimulationTimeout(Exception):
    """Raised when :meth:`Simulator.run_until` exceeds its cycle budget.

    When a :class:`~repro.telemetry.health.HealthMonitor` is attached to
    the simulator, :attr:`diagnostics` carries its full diagnostic dump
    (wait-for graph, FIFO snapshots, last-movement cycle per router) so
    the failure localises itself instead of just naming a cycle count.
    """

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics


class Simulator:
    """Clock driver for a set of components.

    Parameters
    ----------
    clock_hz:
        Nominal clock frequency; only used to convert cycle counts into
        wall-clock figures for reports (the paper's board runs at 25 MHz
        after the clkdll division of the 50 MHz oscillator).
    strict_lockstep:
        When True, keep the legacy evaluate-everything-every-cycle loop
        (recursive eval, no idle skipping).
        Architectural results are identical either way; the flag exists
        for A/B equivalence tests and as an escape hatch (CLI
        ``--no-idle-skip``).
    """

    def __init__(
        self, clock_hz: float = 25_000_000.0, strict_lockstep: bool = False
    ):
        self.clock_hz = clock_hz
        self.cycle = 0
        self.strict_lockstep = strict_lockstep
        self._components: List[Component] = []
        self._component_set: Set[Component] = set()
        #: watcher -> stride (None: every cycle), in registration order
        self._watchers: Dict[Callable[[int], None], Optional[int]] = {}
        #: immutable (watcher, stride) snapshot the loops iterate; it is
        #: rebuilt on every (de)registration, so a watcher that removes
        #: itself mid-pass cannot make the next one miss that cycle
        self._watcher_pass: Tuple[
            Tuple[Callable[[int], None], Optional[int]], ...
        ] = ()
        #: idle spans fast-forwarded and cycles skipped in them, exact
        self.ff_spans = 0
        self.ff_cycles = 0
        #: optional HostPerfProfiler (see repro.telemetry.hostperf); set
        #: by HostPerfProfiler.attach().  Purely observational — a side
        #: thread samples this thread's stack, so the kernel never
        #: consults it and keeps whichever execution path it was on.
        self.hostperf = None
        #: optional HealthMonitor (see repro.telemetry.health); set by
        #: HealthMonitor.attach().  Only consulted on the cold timeout
        #: path, so an unmonitored run pays nothing per cycle.
        self.health = None
        #: optional LiveStream (see repro.telemetry.live); set by
        #: LiveStream.attach().  Frame production rides a strided
        #: watcher, so an unobserved run pays nothing per cycle.
        self.live = None
        #: optional CheckpointRing advertised by whoever owns one (the
        #: system debugger); the live plane reads it for frame marks.
        self.checkpoint_ring = None
        # -- quiescence machinery (built lazily by _elaborate) ------------
        self._units: List[Component] = []
        self._unit_set: Set[Component] = set()
        #: awake units in elaboration order (the loop's run list)
        self._run: List[Component] = []
        #: units woken since the run list was last patched
        self._woken: List[Component] = []
        #: units woken mid-cycle by a later unit or by wake_next, run
        #: from next cycle
        self._later: List[Component] = []
        self._wake_heap: list = []  # (cycle, seq, unit)
        self._wake_seq = 0
        self._needs_elab = True

    # -- construction ----------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a top-level component and return it.

        Adding the same component twice is a no-op: double registration
        would evaluate it twice per cycle and corrupt its state.
        """
        if component not in self._component_set:
            self._component_set.add(component)
            self._components.append(component)
            self._needs_elab = True
        return component

    def add_watcher(
        self, fn: Callable[[int], None], stride: Optional[int] = None
    ) -> None:
        """Call *fn(cycle)* after evaluated cycles (tracing hooks).

        With ``stride=None`` *fn* runs after every evaluated cycle and,
        across a fast-forwarded idle span, once at the landing cycle.
        With ``stride=k`` it runs at every multiple of *k*, and that
        cadence survives idle fast-forward: the kernel replays every
        multiple inside a skipped span (state is frozen there, so the
        replayed call observes exactly what lock-step evaluation would
        have shown).  Samplers and live telemetry frames use this.

        Adding the same function twice is a no-op, like :meth:`add`:
        double registration would run the hook twice per cycle.
        """
        if stride is not None and stride < 1:
            raise ValueError("stride must be at least 1 cycle")
        if fn not in self._watchers:
            self._watchers[fn] = stride
            self._watcher_pass = tuple(self._watchers.items())

    def remove_watcher(self, fn: Callable[[int], None]) -> None:
        """Detach a watcher added with :meth:`add_watcher`.

        Removing a function that is not registered is a no-op, so
        monitors and exporters can detach unconditionally.  A pass in
        progress still finishes over the watchers it started with.
        """
        if fn in self._watchers:
            del self._watchers[fn]
            self._watcher_pass = tuple(self._watchers.items())

    def invalidate_elaboration(self) -> None:
        """Re-elaborate before the next step (wiring/topology changed)."""
        self._needs_elab = True

    # -- elaboration -----------------------------------------------------

    def _elaborate(self) -> None:
        """Flatten the tree into schedulable units.

        A component whose class overrides ``eval`` is a unit (its whole
        subtree evaluates inside that call); default-eval composites are
        descended through, so the flattened unit order exactly matches
        the legacy recursive evaluation order.  Re-elaboration preserves
        units' sleep state (new units start awake).  Under
        ``strict_lockstep`` there are no units.  In both modes it
        finally calls every ``elaborated`` override.
        """
        self._needs_elab = False
        units: List[Component] = []
        hooked: List[Component] = []
        self._units = units
        self._woken.clear()
        self._later.clear()
        strict = self.strict_lockstep
        default_eval = Component.eval
        default_elaborated = Component.elaborated

        def walk(comp: Component, unit: Optional[Component]) -> None:
            cls = type(comp)
            if not strict and unit is None and cls.eval is not default_eval:
                unit = comp
                comp._uidx = len(units)
                units.append(comp)
            comp._kernel = self
            comp._sched = unit
            if cls.elaborated is not default_elaborated:
                hooked.append(comp)
            for child in comp._children:
                walk(child, unit)

        for top in self._components:
            walk(top, None)
        self._unit_set = set(units)
        self._run = [u for u in units if u._awake]
        for comp in hooked:
            comp.elaborated()

    # -- wake management -------------------------------------------------

    def wake_unit(self, unit: Component) -> None:
        """Mark a sleeping unit runnable (external mutation arrived)."""
        if not unit._awake and unit in self._unit_set:
            unit._awake = True
            self._woken.append(unit)

    def wake_next(self, unit: Component) -> None:
        """Mark a sleeping unit runnable from the next cycle on, wherever
        it sits in elaboration order (called during an eval)."""
        if not unit._awake and unit in self._unit_set:
            unit._awake = True
            self._later.append(unit)

    # -- execution ---------------------------------------------------------

    def reset(self) -> None:
        """Assert the global reset: all wires/components to initial state."""
        self.cycle = 0
        for c in self._components:
            c.reset()
        self._wake_heap.clear()
        for u in self._units:
            u._awake = True
            u._slept_since = None
        self._run = list(self._units)
        self._woken.clear()

    # -- checkpointing ---------------------------------------------------

    def _flat_components(self) -> List[Component]:
        return [
            cc for c in self._components for cc in c.iter_components()
        ]

    def settle(self) -> None:
        """Credit every skipped eval and lazily counted span up to this
        cycle: every component's ``credit``, in both kernel modes.

        Only valid at a cycle boundary, like :meth:`snapshot`.  A unit
        stays asleep, and the rest of its span is credited later, so
        settling at any cycle changes no result.
        """
        cycle = self.cycle
        for c in self._components:
            c.credit(cycle)

    def snapshot(self) -> dict:
        """Capture the full simulation state (components + scheduler).

        Only valid at a cycle boundary: inside a watcher or between
        :meth:`step` calls.  The
        returned dict is JSON-serialisable and kernel-mode portable:
        a snapshot taken under either scheduling mode restores into
        either mode with bit-identical continuation.

        It first settles pending idle credit (:meth:`settle`), so the
        snapshot, and any counter read after it, holds exactly what
        lock-step evaluation would have counted.
        """
        if self._needs_elab:
            self._elaborate()
        self.settle()
        units = self._units
        doc: dict = {
            "cycle": self.cycle,
            "components": [c.snapshot() for c in self._components],
        }
        if units:
            index = {u: i for i, u in enumerate(units)}
            heap = sorted(
                [cyc, seq, index[u]]
                for (cyc, seq, u) in self._wake_heap
                if u in index
            )
            doc["scheduler"] = {
                "awake": [bool(u._awake) for u in units],
                "slept_since": [u._slept_since for u in units],
                "wake_heap": heap,
                "wake_seq": self._wake_seq,
            }
        return doc

    def restore(self, doc: dict) -> None:
        """Restore a :meth:`snapshot`; continuation is bit-identical.

        The component tree must have the same topology as the one the
        snapshot was taken from (same construction order, wires and
        children) — a mismatch raises
        :class:`~repro.sim.component.SnapshotError`.

        All or nothing: if the document fails part-way, the simulator is
        put back to the state it had before the call and the error is
        re-raised.
        """
        components = doc.get("components", [])
        if len(components) != len(self._components):
            raise SnapshotError(
                f"snapshot has {len(components)} top-level components, "
                f"simulator has {len(self._components)}"
            )
        before = self.snapshot()
        try:
            self._load(doc)
        except BaseException:
            self._load(before)
            raise

    def _load(self, doc: dict) -> None:
        # The scheduler first: a component restored after it may wake
        # its unit and read the restored cycle.
        if self._needs_elab:
            self._elaborate()
        self.cycle = doc["cycle"]
        self._restore_scheduler(doc.get("scheduler"))
        for comp, state in zip(self._components, doc.get("components", [])):
            comp.restore(state)

    def _restore_scheduler(self, sched: Optional[dict]) -> None:
        if self.strict_lockstep:
            # Lock-step evaluates everything anyway, and a snapshot holds
            # no pending idle credit: taking it settled every sleeper.
            for cc in self._flat_components():
                cc._awake = True
                cc._slept_since = None
            return
        units = self._units
        if (
            sched is not None
            and len(sched.get("awake", [])) == len(units)
            and len(sched.get("slept_since", [])) == len(units)
        ):
            for u, awake, slept in zip(
                units, sched["awake"], sched["slept_since"]
            ):
                u._awake = awake
                u._slept_since = slept
            self._run = [u for u in units if u._awake]
            # in place: a running loop holds the heap by reference
            self._wake_heap[:] = [
                (cyc, seq, units[i])
                for cyc, seq, i in sched.get("wake_heap", [])
            ]
            heapify(self._wake_heap)
            self._wake_seq = sched.get("wake_seq", 0)
        else:
            # Cross-mode (or legacy) snapshot: waking every unit is
            # always safe — a sleeping unit's eval only counts, and it
            # goes straight back to sleep.
            self._wake_heap.clear()
            for u in units:
                u._awake = True
                u._slept_since = None
            self._run = list(units)
        self._woken.clear()

    def step(self, cycles: int = 1) -> int:
        """Advance the simulation by *cycles* clock cycles."""
        if self.strict_lockstep:
            return self._step_lockstep(cycles)
        self._advance(self.cycle + cycles, None)
        return self.cycle

    def _advance(
        self, target: int, predicate: Optional[Callable[[], bool]]
    ) -> bool:
        """The quiescent loop behind :meth:`step` and :meth:`run_until`.

        Runs up to cycle *target*.  With a *predicate*, tests it before
        every cycle with activity and at *target*, and returns True as
        soon as it holds (False: *target* was reached first).
        """
        if self._needs_elab:
            self._elaborate()
        heap = self._wake_heap
        woken = self._woken
        later = self._later
        while True:
            # hostperf: run_until
            if predicate is not None and predicate():
                return True
            cyc = self.cycle
            if cyc >= target:
                return False
            # hostperf: wake_heap
            if self._needs_elab:
                self._elaborate()
            popped = False
            while heap and heap[0][0] <= cyc:
                unit = heappop(heap)[2]
                popped = True
                if not unit._awake and unit in self._unit_set:
                    unit._awake = True
                    woken.append(unit)
            run = self._run
            if woken:
                run.extend(woken)
                run.sort(key=_UIDX)
                woken.clear()
            if not run and self._units:
                land = heap[0][0] if heap else target
                if land > target:
                    land = target
                if popped and predicate is not None:
                    # wakes fell due but woke nobody: a predicate loop
                    # re-tests at the next cycle, like the one after it
                    land = cyc + 1
                self._fast_forward(cyc, land)
                continue
            # hostperf: eval
            changed = False
            for u in run:
                s = u._slept_since
                if s is not None:
                    u._slept_since = None
                    if cyc > s:
                        u.credit(cyc)
                due = u.eval(cyc)
                if due is not None and due > cyc + 1:
                    u._awake = False
                    u._slept_since = cyc + 1
                    if due != SLEEP:
                        self._wake_seq += 1
                        heappush(heap, (due, self._wake_seq, u))
                    changed = True
                if woken:
                    self._admit_mid_cycle(run, u._uidx)
                    changed = True
            # hostperf: kernel
            if changed or later:
                self._patch_run(run, cyc + 1)
            self.cycle = cyc + 1
            # hostperf: watchers
            for fn, stride in self._watcher_pass:
                if stride is None or self.cycle % stride == 0:
                    fn(self.cycle)

    def _admit_mid_cycle(self, run: List[Component], current: int) -> None:
        """Place units woken during the eval of unit index *current*.

        A unit later in elaboration order joins this cycle's pass: the
        stable sort leaves the evaluated prefix in place, so the loop's
        iterator reaches it.  An earlier one waits for the next cycle,
        as in lock-step.
        """
        for w in self._woken:
            (run if w._uidx > current else self._later).append(w)
        self._woken.clear()
        run.sort(key=_UIDX)

    def _patch_run(self, run: List[Component], nxt: int) -> None:
        """Rebuild the run list for cycle *nxt* after sleeps or wakes.

        Survivors keep their places.  A unit woken for the next cycle
        whose ``_slept_since`` is *nxt* slept at its own eval this cycle,
        so it is still in *run* and survives there; every other one is
        added.  (A unit woken for this cycle was admitted at once.)
        """
        new = [u for u in run if u._awake]
        later = self._later
        if later:
            extra = [w for w in later if w._slept_since != nxt]
            if extra:
                new.extend(extra)
                new.sort(key=_UIDX)
            later.clear()
        self._run = new

    def _step_lockstep(self, cycles: int) -> int:
        """The legacy loop: evaluate everything, every cycle."""
        components = self._components
        for _ in range(cycles):
            if self._needs_elab:
                self._elaborate()
            cyc = self.cycle
            # hostperf: eval
            for c in components:
                c.eval(cyc)
            self.cycle = cyc + 1
            # hostperf: watchers
            for fn, stride in self._watcher_pass:
                if stride is None or self.cycle % stride == 0:
                    fn(self.cycle)
        return self.cycle

    def _fast_forward(self, from_cycle: int, to_cycle: int) -> None:
        """Jump over an idle span: every unit is asleep and no wake is
        scheduled before *to_cycle*, so no architectural state can change
        in between — advancing the cycle counter is exact.

        Strided watchers first replay their multiples strictly inside
        the span, in cycle order and in registration order within a
        cycle; then every watcher gets the regular pass at the landing
        cycle *to_cycle*.
        """
        self.ff_spans += 1
        self.ff_cycles += to_cycle - from_cycle
        strided = [(fn, k) for fn, k in self._watcher_pass if k is not None]
        if strided:
            # in cycle order with the cycle counter at each point, as
            # lock-step calls them: a spinning core reads itself current
            last = None
            for c in merge(
                *(stride_points(from_cycle, to_cycle, k) for _, k in strided)
            ):
                if c != last:
                    last = self.cycle = c
                    for fn, k in strided:
                        if c % k == 0:
                            fn(c)
        self.cycle = to_cycle
        for fn, stride in self._watcher_pass:
            if stride is None or to_cycle % stride == 0:
                fn(to_cycle)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
        label: Optional[str] = None,
    ) -> int:
        """Step until *predicate()* is true; return cycles consumed.

        Raises :class:`SimulationTimeout` after *max_cycles* additional
        cycles so a deadlocked model fails loudly instead of spinning.

        On the quiescent path the predicate is evaluated at every cycle
        with activity plus the budget boundary; while every unit sleeps
        the state it could observe is frozen, so skipping the idle span
        between activity points is exact for state-based predicates.
        """
        start = self.cycle
        budget = start + max_cycles
        if self.strict_lockstep:
            while not predicate():
                if self.cycle >= budget:
                    self._timeout(predicate, max_cycles, label)
                self._step_lockstep(1)
        elif not self._advance(budget, predicate):
            self._timeout(predicate, max_cycles, label)
        return self.cycle - start

    def _timeout(
        self,
        predicate: Callable[[], bool],
        max_cycles: int,
        label: Optional[str],
    ) -> None:
        what = label or getattr(predicate, "__name__", "condition")
        message = (
            f"{what} not reached within {max_cycles} cycles "
            f"(at cycle {self.cycle})"
        )
        diagnostics = None
        if self.health is not None:
            diagnostics = self.health.diagnostics()
            message += "\n" + self.health.describe(diagnostics)
        raise SimulationTimeout(message, diagnostics=diagnostics)

    # -- reporting ---------------------------------------------------------

    def elapsed_seconds(self) -> float:
        """Simulated wall-clock time at the nominal clock frequency."""
        return self.cycle / self.clock_hz

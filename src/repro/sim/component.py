"""Base class for clocked hardware components."""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from .wire import Wire


class SnapshotError(Exception):
    """A snapshot does not match the component tree it is restored into."""


#: what reading a snapshot with a missing key or a mistyped value raises
MALFORMED_STATE = (KeyError, TypeError, ValueError, IndexError, AttributeError)


class Component:
    """A synchronous block evaluated once per clock cycle.

    Subclasses implement :meth:`eval`, which may read ``wire.value`` (the
    state latched at the previous edge), update internal registers, and
    call ``wire.drive`` on their output wires.  Internal state may be
    mutated eagerly because no other component can observe it except
    through wires, which only change at the commit phase.

    Activity protocol
    -----------------
    The quiescence-aware kernel (see :class:`~repro.sim.kernel.Simulator`)
    treats every component whose class overrides :meth:`eval` as a
    *schedulable unit*.  A unit may opt into idle-skipping by:

    * overriding :meth:`is_quiescent` to report when its next ``eval``
      would only count (advance per-cycle counters) given unchanged
      inputs, and :meth:`on_wake` to credit those counts,
    * declaring the wires it reads with :meth:`watch_wires` so a
      committed change on any of them wakes it, and
    * calling :meth:`wake` from every externally callable method that
      mutates its state (queueing a packet, activating a core, ...), or
      :meth:`wake_at` for purely time-based work.

    Components that never override :meth:`is_quiescent` are evaluated
    every cycle, exactly like the original lock-step kernel.
    """

    def __init__(self, name: str):
        self.name = name
        self._wires: List[Wire] = []
        self._wire_set: Set[Wire] = set()
        self._inputs: List[Wire] = []
        self._children: List["Component"] = []
        # -- kernel elaboration state (managed by Simulator) --------------
        self._kernel = None  # Simulator that elaborated this component
        self._sched = None  # schedulable unit owning this component
        self._awake = True
        self._slept_since = None  # first cycle whose eval was skipped
        self._can_sleep = False  # cached: class overrides is_quiescent
        self._last_wake_req = None  # (kernel, cycle) of the last wake_at

    # -- construction helpers -------------------------------------------

    def wire(self, name: str, reset=0, width: int | None = None) -> Wire:
        """Create a wire owned (registered and reset) by this component."""
        w = Wire(f"{self.name}.{name}", reset=reset, width=width)
        self._wires.append(w)
        self._wire_set.add(w)
        return w

    def adopt_wires(self, wires: Iterable[Wire]) -> None:
        """Register externally created wires for commit/reset handling."""
        added = False
        for w in wires:
            if w not in self._wire_set:
                self._wire_set.add(w)
                self._wires.append(w)
                added = True
        if added:
            self._invalidate_kernel()

    def disown_wires(self, wires: Iterable[Wire]) -> None:
        """Stop committing/resetting previously adopted wires (used when
        re-wiring components, e.g. dynamic reconfiguration)."""
        doomed = {w for w in wires if w in self._wire_set}
        if not doomed:
            return
        self._wire_set -= doomed
        self._wires = [w for w in self._wires if w not in doomed]
        self._invalidate_kernel()

    def watch_wires(self, wires: Iterable[Wire]) -> None:
        """Declare *wires* as inputs: a committed change wakes this
        component's schedulable unit."""
        changed = False
        for w in wires:
            if w not in self._inputs:
                self._inputs.append(w)
                changed = True
        if changed:
            self._invalidate_kernel()

    def unwatch_wires(self, wires: Iterable[Wire]) -> None:
        """Stop watching previously declared input wires."""
        drop = set(wires)
        kept = [w for w in self._inputs if w not in drop]
        if len(kept) != len(self._inputs):
            self._inputs = kept
            self._invalidate_kernel()

    def add_child(self, child: "Component") -> "Component":
        self._children.append(child)
        self._invalidate_kernel()
        return child

    def remove_child(self, child: "Component") -> None:
        """Detach a child (dynamic reconfiguration); no-op if absent."""
        try:
            self._children.remove(child)
        except ValueError:
            return
        self._invalidate_kernel()

    def _invalidate_kernel(self) -> None:
        """Wiring changed after elaboration: make the kernel re-elaborate."""
        k = self._kernel
        if k is None and self._sched is not None:
            k = self._sched._kernel
        if k is not None:
            k.invalidate_elaboration()

    # -- activity protocol ----------------------------------------------

    def is_quiescent(self) -> bool:
        """True when the next ``eval`` would only count, given unchanged
        inputs.

        The default (``False``) keeps legacy components evaluated every
        cycle.  Overriders must guarantee that, until an input wire
        changes, :meth:`wake`/:meth:`wake_at` fires, or an external call
        mutates it, a quiescent component's ``eval`` drives no new wire
        value and changes no state except per-cycle counts that
        :meth:`on_wake` can credit (stall cycles, a countdown).
        """
        return False

    def on_wake(self, skipped_cycles: int) -> None:
        """Credit *skipped_cycles* evals the kernel skipped while quiescent.

        Called before the first ``eval`` after a quiescent span, and by
        :meth:`~repro.sim.kernel.Simulator.settle` for the part of a
        span that has passed, so one span may be credited in pieces;
        ``on_wake(a)`` then ``on_wake(b)`` must equal ``on_wake(a + b)``.
        Override to add what lock-step evaluation would have counted
        (stall counters, phase counters, countdowns, replayed decisions,
        the iterations of a poll loop).
        """

    def member_input(self, member: "Component", wire: Wire) -> None:
        """A committed change on *wire*, which *member* (a component
        inside this unit) watches.

        A unit that overrides this routes its members' wakes itself: the
        kernel calls it in O(1) from the commit phase instead of waking
        the whole unit, and the override must call :meth:`wake` when the
        change needs this unit evaluated (see
        :class:`~repro.noc.mesh.Mesh`, whose routers are members).
        """

    def settle(self, cycle: int) -> None:
        """Credit, at the cycle boundary *cycle*, what this component
        counts lazily (spans it credits when they end).

        :meth:`~repro.sim.kernel.Simulator.settle` calls every override,
        in both kernel modes, after crediting sleeping units through
        :meth:`on_wake`.  Settling in pieces must equal settling once.
        """

    def elaborated(self) -> None:
        """Called after every (re-)elaboration, in both kernel modes,
        once ``_kernel`` and ``_sched`` are set and the kernel has
        installed its commit queue and wake sinks on every wire.  A unit
        that commits some of its members' wires itself takes them back
        here."""

    def wake(self) -> None:
        """Mark this component's schedulable unit as active.

        Call from every externally visible mutation (queueing work,
        activating a core...).  Cheap no-op while already awake or before
        kernel elaboration.
        """
        unit = self._sched
        if unit is not None and not unit._awake:
            k = unit._kernel
            if k is not None:
                k.wake_unit(unit)

    def wake_at(self, cycle: int) -> None:
        """Schedule a wake-up for this component's unit at *cycle*.

        Quiescence predicates may call this every cycle while their unit
        is still awake (another sibling is busy); repeating the same
        future cycle is deduplicated so the wake heap stays small.
        """
        unit = self._sched
        if unit is None:
            return
        k = unit._kernel
        if k is not None:
            req = (k, cycle)
            if req != self._last_wake_req:
                self._last_wake_req = req
                k.schedule_wake(unit, cycle)

    # -- simulation protocol --------------------------------------------

    def eval(self, cycle: int) -> None:
        """Evaluate one clock cycle.  Default: evaluate children in order."""
        for child in self._children:
            child.eval(cycle)

    def reset(self) -> None:
        """Return owned wires and children to their reset state."""
        for w in self._wires:
            w.reset()
        for child in self._children:
            child.reset()

    # -- checkpoint protocol ---------------------------------------------

    def snapshot(self) -> dict:
        """Capture this subtree's full state as a JSON-serialisable dict.

        The generic walk records every owned wire (both phases) and
        recurses into children; component-local registers are contributed
        by :meth:`snapshot_state` overrides.  Valid only at a cycle
        boundary (between a commit phase and the next :meth:`eval`), when
        ``value == _next`` for every undriven wire and no drive is
        pending — exactly where :class:`~repro.sim.kernel.Simulator`
        watchers run.
        """
        state: dict = {
            "wires": [[w.value, w._next] for w in self._wires],
            "children": [c.snapshot() for c in self._children],
        }
        local = self.snapshot_state()
        if local is not None:
            state["state"] = local
        return state

    def restore(self, state: dict) -> None:
        """Restore a subtree from a :meth:`snapshot` dict.

        Children are restored before this component's own
        :meth:`restore_state`, so a parent override can re-link shared
        objects (e.g. an in-flight bus transaction aliased between a CPU
        and its IP) after the child state exists.

        Local state that is missing a key or has a value of the wrong
        type raises :class:`SnapshotError` naming the component.
        """
        wires = state.get("wires", [])
        if len(wires) != len(self._wires):
            raise SnapshotError(
                f"{self.name}: snapshot has {len(wires)} wires, "
                f"component owns {len(self._wires)} (topology mismatch)"
            )
        for w, (value, nxt) in zip(self._wires, wires):
            w.value = value
            w._next = nxt
            w._queued = False
        children = state.get("children", [])
        if len(children) != len(self._children):
            raise SnapshotError(
                f"{self.name}: snapshot has {len(children)} children, "
                f"component has {len(self._children)} (topology mismatch)"
            )
        for child, child_state in zip(self._children, children):
            child.restore(child_state)
        try:
            self.restore_state(state.get("state", {}))
        except MALFORMED_STATE as exc:
            raise SnapshotError(
                f"{self.name}: malformed snapshot state "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    def snapshot_state(self) -> Optional[dict]:
        """Component-local registers as a JSON-serialisable dict.

        Return ``None`` (the default) when the component keeps no state
        beyond its wires and children.  Overrides must round-trip through
        :meth:`restore_state` bit-identically.
        """
        return None

    def restore_state(self, state: dict) -> None:
        """Restore what :meth:`snapshot_state` captured (default: nothing)."""

    def iter_components(self) -> Iterable["Component"]:
        """Yield this component and all descendants (pre-order)."""
        yield self
        for child in self._children:
            yield from child.iter_components()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"

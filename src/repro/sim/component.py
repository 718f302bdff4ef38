"""Base class for clocked hardware components."""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from .wire import Wire

#: what :meth:`Component.eval` returns to sleep until an input changes or
#: :meth:`Component.wake` is called; later than every cycle, so a
#: composite's next due cycle is the ``min`` of its members'
SLEEP = float("inf")


class SnapshotError(Exception):
    """A snapshot does not match the component tree it is restored into."""


#: what reading a snapshot with a missing key or a mistyped value raises
MALFORMED_STATE = (KeyError, TypeError, ValueError, IndexError, AttributeError)


class Component:
    """A synchronous block evaluated once per clock cycle.

    Subclasses implement :meth:`eval`, which may read ``wire.read(cycle)``
    (the value driven before this cycle), update internal registers, and
    call ``wire.drive(value, cycle)`` on their output wires.  Internal
    state may be mutated eagerly because no other component can observe
    it except through wires and links, whose changes are seen from the
    next cycle on.

    Activity protocol
    -----------------
    The quiescence-aware kernel (see :class:`~repro.sim.kernel.Simulator`)
    treats every component whose class overrides :meth:`eval` as a
    *schedulable unit*.  One contract lets a unit sleep:

    * :meth:`eval` returns when the unit is next due: ``None`` to stay
      awake, a cycle to sleep until that cycle's eval, or :data:`SLEEP`
      to sleep until an input or :meth:`wake`.  Until then its evals
      would only count (per-cycle counters, a countdown, the samples of
      a line, the iterations of a poll loop), given unchanged inputs;
    * :meth:`credit` accounts what the skipped evals would have counted;
    * every externally callable method that mutates it (queueing a
      packet, activating a core, ...) calls :meth:`wake`, and a change
      it reads from another unit (a link step, a line edge) wakes it
      for the next cycle (``Simulator.wake_next``).

    A unit whose eval returns ``None`` is evaluated every cycle, exactly
    like the original lock-step kernel.
    """

    def __init__(self, name: str):
        self.name = name
        self._wires: List[Wire] = []
        self._wire_set: Set[Wire] = set()
        self._children: List["Component"] = []
        # -- kernel elaboration state (managed by Simulator) --------------
        self._kernel = None  # Simulator that elaborated this component
        self._sched = None  # schedulable unit owning this component
        self._awake = True
        self._slept_since = None  # first cycle whose eval was skipped

    # -- construction helpers -------------------------------------------

    def wire(self, name: str, reset=0, width: int | None = None) -> Wire:
        """Create a wire owned (registered and reset) by this component."""
        w = Wire(f"{self.name}.{name}", reset=reset, width=width)
        self._wires.append(w)
        self._wire_set.add(w)
        return w

    def adopt_wires(self, wires: Iterable[Wire]) -> None:
        """Register externally created wires for reset and checkpoints."""
        for w in wires:
            if w not in self._wire_set:
                self._wire_set.add(w)
                self._wires.append(w)

    def disown_wires(self, wires: Iterable[Wire]) -> None:
        """Stop resetting and checkpointing previously adopted wires (used
        when re-wiring components, e.g. dynamic reconfiguration)."""
        doomed = set(wires)
        self._wire_set -= doomed
        self._wires = [w for w in self._wires if w not in doomed]

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

    def credit(self, to_cycle: int) -> None:
        """Account every eval skipped before *to_cycle* (default: each
        child's).

        The kernel calls it on a unit coming back from sleep, and
        :meth:`~repro.sim.kernel.Simulator.settle` on every top-level
        component, in both kernel modes.  An override knows how far its
        state is current, so ``credit(a)`` then ``credit(b)`` equals
        ``credit(b)``, and crediting an awake component changes nothing
        but what it counts lazily (a router's stall spans).
        """
        for child in self._children:
            child.credit(to_cycle)

    def elaborated(self) -> None:
        """Called after every (re-)elaboration, in both kernel modes,
        once ``_kernel`` and ``_sched`` are set (the Hermes fabric picks
        its kernel mode here)."""

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

    # -- simulation protocol --------------------------------------------

    def eval(self, cycle: int) -> Optional[float]:
        """Evaluate one clock cycle and return when this unit is next
        due (see the activity protocol).  Default: evaluate children in
        order, and stay awake."""
        for child in self._children:
            child.eval(cycle)
        return None

    def reset(self) -> None:
        """Return owned wires and children to their reset state."""
        for w in self._wires:
            w.reset()
        for child in self._children:
            child.reset()

    # -- checkpoint protocol ---------------------------------------------

    def snapshot(self) -> dict:
        """Capture this subtree's full state as a JSON-serialisable dict.

        The generic walk records every owned wire and recurses into
        children; component-local registers are contributed by
        :meth:`snapshot_state` overrides.  Valid only at a cycle boundary
        (after one cycle's evals and before the next), where every wire
        shows what its readers see next, and where
        :class:`~repro.sim.kernel.Simulator` watchers run.  Each wire is
        a ``[value, next]`` pair, the two equal at a cycle boundary.
        """
        state: dict = {
            "wires": [[w.value, w.value] for w in self._wires],
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
            if w.width is not None:
                for v in (value, nxt):
                    # isinstance: an in-memory snapshot holds IntEnum flits
                    if not isinstance(v, int) or not 0 <= v < 1 << w.width:
                        raise SnapshotError(
                            f"{self.name}: wire {w.name!r} holds {v!r}, "
                            f"not a {w.width}-bit value"
                        )
            w.load(value)
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

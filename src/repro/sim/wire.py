"""Two-phase signal wires for synchronous hardware simulation.

Every value exchanged between two components travels over a :class:`Wire`.
During the *evaluate* phase of a clock cycle components read ``wire.value``
(the value latched at the previous clock edge) and call :meth:`Wire.drive`
to schedule the value for the next edge.  The kernel then *commits* all
wires at once, which models a synchronous register boundary and makes the
simulation independent of component evaluation order.

Two kernel-facing refinements keep the hot path flat:

* **Driven-wire queue.**  When the quiescence-aware kernel elaborates a
  design it installs its pending-commit list as each wire's ``_queue``;
  the first :meth:`drive` of a cycle enqueues the wire, so the commit
  phase touches only wires that were actually driven instead of walking
  the whole component tree.  ``_sinks`` holds the schedulable units that
  declared the wire as an input — a committed value *change* wakes them
  — and ``_members`` the ``(unit, member)`` pairs whose unit takes the
  change for the member itself (``Component.member_input``).
* **Drive-on-change.**  A drive equal to the pending ``_next`` returns
  at once: it cannot change what commit latches, so the wire is neither
  rewritten nor queued.  This is exact because every wire has exactly
  one driver — no second component can have scheduled a different
  value that the equal drive would have had to overwrite.  A component
  that re-presents a held value each cycle therefore costs one
  comparison, and commit never sees the wire.
* **Checked/unchecked split.**  Width checking lives in the
  :class:`CheckedWire` subclass; ``Wire(name, width=8)`` transparently
  builds one.  Wires created without a width run a :meth:`drive` with no
  per-call width branch at all.
* **Views.**  A :class:`FieldWire` shows a field of a record that its
  owner updates directly (the Hermes fabric's links) as a wire.
"""

from __future__ import annotations

from typing import Any


class Wire:
    """A named signal with registered (two-phase) update semantics.

    Parameters
    ----------
    name:
        Diagnostic name, shown in traces and error messages.
    reset:
        Value the wire holds at cycle zero and after :meth:`reset`.
    width:
        Optional bit width.  When given, the constructor returns a
        :class:`CheckedWire` whose :meth:`drive` validates values against
        ``[0, 2**width)``, catching encoding bugs early.  Without a
        width, drives are entirely unchecked (the fast path).
    """

    __slots__ = (
        "name",
        "value",
        "reset_value",
        "width",
        "_next",
        "_queue",
        "_queued",
        "_sinks",
        "_members",
    )

    def __new__(cls, name: str, reset: Any = 0, width: int | None = None):
        if cls is Wire and width is not None:
            return object.__new__(CheckedWire)
        return object.__new__(cls)

    def __init__(self, name: str, reset: Any = 0, width: int | None = None):
        self.name = name
        self.reset_value = reset
        self.width = width
        self.value = reset
        self._next = reset
        #: kernel's pending-commit list (installed at elaboration) or None
        self._queue = None
        self._queued = False
        #: schedulable units reading this wire (built at elaboration)
        self._sinks: Any = ()
        #: (unit, member) pairs whose unit routes a member's wake itself
        #: (see Component.member_input; built at elaboration)
        self._members: Any = ()
        if width is not None:
            self._max = 1 << width

    def drive(self, value: Any) -> None:
        """Schedule *value* to appear on the wire at the next clock edge."""
        if value == self._next:
            return
        self._next = value
        if not self._queued:
            q = self._queue
            if q is not None:
                q.append(self)
                self._queued = True

    def commit(self) -> None:
        """Latch the scheduled value (the kernels' commit phases do this
        inline for every driven wire)."""
        self.value = self._next

    def reset(self) -> None:
        """Return the wire to its reset value in both phases."""
        self.value = self.reset_value
        self._next = self.reset_value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Wire({self.name}={self.value!r})"


class CheckedWire(Wire):
    """A :class:`Wire` with a declared bit width and range-checked drives.

    ``Wire(name, width=n)`` returns one of these; the precomputed bound
    keeps the check to a single comparison, and width-less wires never
    pay for it at all.  The range check runs before the drive-on-change
    shortcut, so an out-of-range value is rejected even when it equals
    the pending one.
    """

    __slots__ = ("_max",)

    def drive(self, value: Any) -> None:
        if not isinstance(value, int) or not 0 <= value < self._max:
            raise ValueError(
                f"wire {self.name!r}: value {value!r} does not fit in "
                f"{self.width} bits"
            )
        if value == self._next:
            return
        self._next = value
        if not self._queued:
            q = self._queue
            if q is not None:
                q.append(self)
                self._queued = True


class FieldWire(Wire):
    """A view of one field of a record: never driven or committed, its
    value in both phases is the field, which restoring or resetting the
    wire writes."""

    __slots__ = ("_record", "_field")

    def __new__(cls, *args):
        return object.__new__(cls)

    def __init__(self, name: str, record: Any, field: str, width: int):
        self.name, self.reset_value, self.width = name, 0, width
        self._record, self._field = record, field
        self._queue, self._queued, self._sinks, self._members = None, False, (), ()

    value = _next = property(
        lambda self: getattr(self._record, self._field),
        lambda self, value: setattr(self._record, self._field, value),
    )

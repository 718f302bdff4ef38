"""Signal wires that latch themselves.

A :class:`Wire` has one driver and at most one reader.  The driver
calls :meth:`Wire.drive` with the cycle of its eval; every reader sees
the new value from the next cycle on (:meth:`Wire.read`), so a wire
models a synchronous register boundary and the simulation does not
depend on the order components are evaluated in.  The Hermes fabric's
links follow the same rule (:class:`~repro.noc.mesh.Link`): a step at
cycle c is seen from c+1.

The wire keeps the value last driven (``value``), the value before it
and the cycle of that drive, so no kernel phase latches it.  Between
cycles, where watchers, tracers and checkpoints look, ``value`` is
what every reader sees next.

* **Drive-on-change.**  A drive equal to the value last driven returns
  at once.  This is exact because a wire has exactly one driver, which
  drives it at most once a cycle.
* **The reader.**  A change hands the wire's ``reader`` (the UART
  receiver on a serial line) ``edge(cycle + 1, value)``: the cycle the
  change is first seen and the new level.  The reader logs the edge or
  wakes its kernel unit for that cycle.
* **Width.**  A wire created with a width range-checks every drive,
  before the drive-on-change shortcut, so an out-of-range value is
  rejected even when it equals the last one.
* **Views.**  A :class:`FieldWire` shows a field of a record that its
  owner updates directly (the Hermes fabric's links) as a wire.
"""

from __future__ import annotations

from typing import Any


class Wire:
    """A named signal whose drives are seen from the next cycle on.

    Parameters
    ----------
    name:
        Diagnostic name, shown in traces and error messages.
    reset:
        Value the wire holds at cycle zero and after :meth:`reset`.
    width:
        Optional bit width.  When given, :meth:`drive` validates values
        against ``[0, 2**width)``, catching encoding bugs early.
    """

    __slots__ = ("name", "value", "reset_value", "width", "reader",
                 "_prev", "_at", "_max")

    def __init__(self, name: str, reset: Any = 0, width: int | None = None):
        self.name = name
        self.reset_value = reset
        self.width = width
        #: the component told of every change (see the module docstring)
        self.reader = None
        self._max = None if width is None else 1 << width
        self.load(reset)

    def drive(self, value: Any, cycle: int) -> None:
        """Drive *value* at *cycle*; readers see it from ``cycle + 1``."""
        m = self._max
        if m is not None and not (isinstance(value, int) and 0 <= value < m):
            raise ValueError(
                f"wire {self.name!r}: value {value!r} does not fit in "
                f"{self.width} bits"
            )
        if value == self.value:
            return
        if cycle != self._at:
            self._prev, self._at = self.value, cycle
        self.value = value
        if self.reader is not None:
            self.reader.edge(cycle + 1, value)

    def read(self, cycle: int) -> Any:
        """The value a reader sees at *cycle*, the current cycle or a
        later one."""
        return self.value if cycle > self._at else self._prev

    def load(self, value: Any) -> None:
        """Show *value* at every cycle from now on, with no drive in
        flight (reset and checkpoint restore).  The stamp goes too, so a
        board restored to an earlier cycle reads *value* at once."""
        self.value = self._prev = value
        self._at = -1

    def reset(self) -> None:
        """Return the wire to its reset value."""
        self.load(self.reset_value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Wire({self.name}={self.value!r})"


class FieldWire(Wire):
    """A view of one field of a record: never driven, its value is the
    field, which loading or resetting the wire writes."""

    __slots__ = ("_record", "_field")

    def __init__(self, name: str, record: Any, field: str, width: int):
        self.name, self.reset_value, self.width = name, 0, width
        self._record, self._field = record, field

    value = property(
        lambda self: getattr(self._record, self._field),
        lambda self, value: setattr(self._record, self._field, value),
    )

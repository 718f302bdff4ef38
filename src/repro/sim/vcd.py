"""VCD (Value Change Dump) export for simulation traces.

Writes IEEE-1364-style VCD files from a set of wires so NoC handshakes
and UART lines can be inspected in GTKWave or any other waveform
viewer — the debugging workflow every RTL engineer expects from a
hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Union

from .wire import Wire

#: Printable VCD identifier characters, per the spec.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Compact VCD identifier for the *index*-th signal."""
    out = []
    index += 1
    while index:
        index, digit = divmod(index - 1, len(_ID_CHARS))
        out.append(_ID_CHARS[digit])
    return "".join(out)


@dataclass
class VcdWriter:
    """Records wire values each cycle and serialises them as VCD.

    Usage::

        vcd = VcdWriter([ch.tx, ch.data, ch.ack], timescale="20ns")
        sim.add_watcher(vcd.sample)
        sim.step(500)
        vcd.write("trace.vcd")

    Wires are grouped into scopes by their dotted name prefix
    (``router00.east.tx`` lands in scope ``router00``).
    """

    wires: Sequence[Wire]
    timescale: str = "20ns"  # one clock cycle at the 50 MHz board clock
    _ids: Dict[str, str] = field(default_factory=dict)
    _widths: Dict[str, int] = field(default_factory=dict)
    _changes: List[tuple] = field(default_factory=list)
    _last: Dict[str, Optional[int]] = field(default_factory=dict)
    _cycles: int = 0

    def __post_init__(self) -> None:
        for i, wire in enumerate(self.wires):
            self._ids[wire.name] = _identifier(i)
            self._widths[wire.name] = wire.width or 16
            # baseline: the value at attach time goes into $dumpvars,
            # only subsequent changes into the timeline
            self._last[wire.name] = wire.value if isinstance(wire.value, int) else 0
            self._initial = getattr(self, "_initial", {})
            self._initial[wire.name] = self._last[wire.name]

    def sample(self, cycle: int) -> None:
        """Watcher hook: record changes at *cycle*."""
        self._cycles = max(self._cycles, cycle)
        for wire in self.wires:
            value = wire.value
            if not isinstance(value, int):
                continue  # VCD carries scalars/vectors only
            if self._last[wire.name] != value:
                self._last[wire.name] = value
                self._changes.append((cycle, wire.name, value))

    def rewind(self, cycle: int) -> None:
        """The board was restored to *cycle* (time travel): drop the
        changes recorded after it and take the wires' restored values as
        the last seen, so the replay appends the tail again."""
        self._changes = [c for c in self._changes if c[0] <= cycle]
        self._cycles = cycle
        for wire in self.wires:
            if isinstance(wire.value, int):
                self._last[wire.name] = wire.value

    # -- serialisation -----------------------------------------------------

    def _header(self, out: TextIO) -> None:
        out.write("$date MultiNoC simulation $end\n")
        out.write("$version repro VcdWriter $end\n")
        out.write(f"$timescale {self.timescale} $end\n")
        # group by first dotted component
        scopes: Dict[str, List[Wire]] = {}
        for wire in self.wires:
            scope, _, _ = wire.name.partition(".")
            scopes.setdefault(scope, []).append(wire)
        for scope in sorted(scopes):
            out.write(f"$scope module {scope} $end\n")
            for wire in scopes[scope]:
                width = self._widths[wire.name]
                short = wire.name.split(".", 1)[-1].replace(" ", "_")
                out.write(
                    f"$var wire {width} {self._ids[wire.name]} {short} $end\n"
                )
            out.write("$upscope $end\n")
        out.write("$enddefinitions $end\n")

    def _format_value(self, name: str, value: int) -> str:
        ident = self._ids[name]
        if self._widths[name] == 1:
            return f"{value & 1}{ident}"
        return f"b{value:b} {ident}"

    def dump(self) -> str:
        """The complete VCD text."""
        from io import StringIO

        out = StringIO()
        self._header(out)
        out.write("$dumpvars\n")
        for wire in self.wires:
            out.write(self._format_value(wire.name, self._initial[wire.name]) + "\n")
        out.write("$end\n")
        current_time: Optional[int] = None
        for cycle, name, value in self._changes:
            if cycle != current_time:
                out.write(f"#{cycle}\n")
                current_time = cycle
            out.write(self._format_value(name, value) + "\n")
        out.write(f"#{self._cycles + 1}\n")
        return out.getvalue()

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.dump())
        return path

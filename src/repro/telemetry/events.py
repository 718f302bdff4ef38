"""Structured event and span collection.

The telemetry layer's core is a single :class:`TelemetrySink` that every
instrumented component shares.  Components hold a ``sink`` attribute that
is ``None`` by default; each hook site is guarded by one ``if sink is not
None`` check, so a simulation without telemetry pays only that branch.

Events use the Chrome trace-event phase vocabulary so they export
losslessly (see :mod:`repro.telemetry.export`):

=====  =========================================================
phase  meaning
=====  =========================================================
``X``  complete span: ``ts`` .. ``ts + dur`` (packet hop, stall,
       instruction burst, host transaction)
``i``  instant event (printf trap, route decision, activation)
``C``  counter sample (queue depth over time)
=====  =========================================================

Timestamps are **simulation cycles**; the exporters map them to the
viewer's microsecond timeline (optionally scaled by the clock rate).
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from .metrics import MetricsRegistry


class Event:
    """One telemetry record.  Deliberately tiny: millions may be stored."""

    __slots__ = ("ph", "name", "track", "ts", "dur", "args")

    def __init__(
        self,
        ph: str,
        name: str,
        track: str,
        ts: int,
        dur: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.ph = ph
        self.name = name
        self.track = track
        self.ts = ts
        self.dur = dur
        self.args = args

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ph": self.ph,
            "name": self.name,
            "track": self.track,
            "ts": self.ts,
        }
        if self.dur is not None:
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dur = f"+{self.dur}" if self.dur is not None else ""
        return f"<Event {self.ph} {self.name}@{self.track} #{self.ts}{dur}>"


class TelemetrySink:
    """Shared collector for events and metrics.

    Parameters
    ----------
    max_events:
        Optional ring-buffer bound.  When set, the oldest events are
        discarded once the buffer is full (``dropped_events`` counts
        them), so unbounded runs cannot exhaust memory.
    metrics:
        Registry to attach; a fresh one is created by default.  Passing
        the registry that :class:`~repro.noc.stats.NetworkStats` uses
        makes NoC aggregates and ad-hoc component metrics one namespace.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.max_events = max_events
        self.events: Union[List[Event], Deque[Event]] = (
            deque(maxlen=max_events) if max_events is not None else []
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.dropped_events = 0
        #: track name -> (process name, thread id); processes group tracks
        #: into Perfetto "processes" (noc / cpu / host / serial).
        self.tracks: Dict[str, Tuple[str, int]] = {}
        self._next_tid: Dict[str, int] = {}

    # -- track registry ---------------------------------------------------

    def track(self, name: str, process: str = "sim") -> str:
        """Register *name* under *process* (idempotent); returns *name*."""
        if name not in self.tracks:
            tid = self._next_tid.get(process, 0) + 1
            self._next_tid[process] = tid
            self.tracks[name] = (process, tid)
        return name

    # -- emission ---------------------------------------------------------

    def emit(self, event: Event) -> None:
        if event.track not in self.tracks:
            self.track(event.track)
        if self.max_events is not None and len(self.events) == self.max_events:
            self.dropped_events += 1
        self.events.append(event)

    def instant(self, track: str, name: str, ts: int, **args: Any) -> None:
        self.emit(Event("i", name, track, ts, args=args or None))

    def complete(
        self, track: str, name: str, ts: int, dur: int, **args: Any
    ) -> None:
        """A finished span: the workhorse for hops, stalls and bursts."""
        self.emit(Event("X", name, track, ts, dur, args=args or None))

    def counter(self, track: str, name: str, ts: int, value: float) -> None:
        self.emit(Event("C", name, track, ts, args={"value": value}))

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def events_on(self, track: str) -> List[Event]:
        return [e for e in self.events if e.track == track]

    def events_named(self, name: str) -> List[Event]:
        return [e for e in self.events if e.name == name]

    def as_csv(self) -> str:
        """``ph,name,track,ts,dur,args`` lines with a header.

        Built with :mod:`csv` so args containing commas, quotes or
        newlines are quoted/escaped correctly and survive a round-trip
        through any CSV reader; ``args`` is JSON-encoded in its cell.
        """
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["ph", "name", "track", "ts", "dur", "args"])
        for e in self.events:
            writer.writerow(
                [
                    e.ph,
                    e.name,
                    e.track,
                    e.ts,
                    "" if e.dur is None else e.dur,
                    json.dumps(e.args, sort_keys=True) if e.args else "",
                ]
            )
        return out.getvalue()

    def truncate_to(self, n: int) -> int:
        """Drop every event after index *n* (checkpoint-restore rewind).

        When the debugger restores an earlier checkpoint, deterministic
        replay re-emits the tail of the trace; truncating first keeps the
        stream free of duplicates.  Returns the number of events dropped.
        Refuses (returning 0) on a ring-buffered sink that has already
        discarded events — indices no longer align with emission order.
        """
        if n < 0:
            raise ValueError(f"cannot truncate to negative length {n}")
        if self.dropped_events:
            return 0
        dropped = len(self.events) - n
        if dropped <= 0:
            return 0
        if isinstance(self.events, deque):
            for _ in range(dropped):
                self.events.pop()
        else:
            del self.events[n:]
        return dropped

    def clear(self) -> None:
        self.events.clear()
        self.dropped_events = 0

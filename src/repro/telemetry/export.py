"""Exporters: JSONL event log, Chrome trace-event / Perfetto JSON,
Prometheus text.

The Chrome trace-event format (the JSON flavour Perfetto and
``chrome://tracing`` both load) maps telemetry concepts directly:

* each registered *process* ("noc", "cpu", "host", "serial") becomes a
  ``pid`` with a ``process_name`` metadata record,
* each *track* (one router, one CPU, the host) becomes a ``tid`` with a
  ``thread_name`` metadata record,
* span/instant/counter events pass through with their phase letter.

Timestamps: the trace-event ``ts`` field is in microseconds.  With a
``clock_hz`` the cycle stamps are converted to real simulated time;
without one, one cycle is rendered as one microsecond (relative timing
is what matters in a viewer).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .events import Event, TelemetrySink

PathLike = Union[str, Path]


def _packet_flows(sink: TelemetrySink) -> List[tuple]:
    """Pair each NI ``inject`` span with its destination ``packet`` span.

    Both spans start at the packet's injection cycle and the delivering
    NI stamps its own address (``at``) while the injector stamps the
    ``target``, so pairing on ``(address, injection ts)`` — FIFO on ties
    — reproduces the network's own delivery matching.  Returns
    ``(inject_event, packet_event)`` pairs.
    """
    pending: Dict[tuple, List[Event]] = {}
    pairs: List[tuple] = []
    for event in sink.events:
        if event.ph != "X" or not event.args:
            continue
        if event.name == "inject" and "target" in event.args:
            key = (event.args["target"], event.ts)
            pending.setdefault(key, []).append(event)
        elif event.name == "packet" and "at" in event.args:
            queue = pending.get((event.args["at"], event.ts))
            if queue:
                pairs.append((queue.pop(0), event))
    return pairs


def chrome_trace(
    sink: TelemetrySink, clock_hz: Optional[float] = None
) -> Dict[str, Any]:
    """Build the trace-event JSON document as a dict."""
    scale = 1e6 / clock_hz if clock_hz else 1.0
    pids: Dict[str, int] = {}
    trace_events: List[Dict[str, Any]] = []

    def pid_of(process: str) -> int:
        if process not in pids:
            pids[process] = len(pids) + 1
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pids[process],
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        return pids[process]

    track_ids: Dict[str, tuple] = {}
    for track, (process, tid) in sink.tracks.items():
        pid = pid_of(process)
        track_ids[track] = (pid, tid)
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )

    for event in sink.events:
        pid, tid = track_ids[event.track]
        record: Dict[str, Any] = {
            "name": event.name,
            "ph": event.ph,
            "ts": event.ts * scale,
            "pid": pid,
            "tid": tid,
        }
        if event.ph == "X":
            record["dur"] = (event.dur or 0) * scale
        if event.ph == "i":
            record["s"] = "t"  # thread-scoped instant
        if event.args:
            record["args"] = event.args
        trace_events.append(record)

    # Flow events: draw the injection -> delivery arrow across tracks.
    for flow_id, (inject, packet) in enumerate(_packet_flows(sink), start=1):
        src_pid, src_tid = track_ids[inject.track]
        dst_pid, dst_tid = track_ids[packet.track]
        common = {"name": "packet_flow", "cat": "packet", "id": flow_id}
        trace_events.append(
            {
                **common,
                "ph": "s",
                "ts": (inject.ts + (inject.dur or 0)) * scale,
                "pid": src_pid,
                "tid": src_tid,
            }
        )
        trace_events.append(
            {
                **common,
                "ph": "f",
                "bp": "e",  # bind to the enclosing `packet` slice
                "ts": (packet.ts + (packet.dur or 0)) * scale,
                "pid": dst_pid,
                "tid": dst_tid,
            }
        )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    sink: TelemetrySink, path: PathLike, clock_hz: Optional[float] = None
) -> Path:
    """Write a ``.json`` file that loads in Perfetto / chrome://tracing."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(sink, clock_hz=clock_hz)))
    return path


def write_jsonl(sink: TelemetrySink, path: PathLike) -> Path:
    """Write one JSON object per event — greppable, streamable.

    The first line is a ``meta`` record carrying the track registry, so
    :func:`load_jsonl` can rebuild an equivalent sink (process grouping
    included) and post-mortem analysis of the file matches analysis of
    the live sink exactly.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(
            json.dumps(
                {
                    "meta": "tracks",
                    "tracks": {
                        name: [process, tid]
                        for name, (process, tid) in sink.tracks.items()
                    },
                }
            )
        )
        fh.write("\n")
        for event in sink.events:
            fh.write(json.dumps(event.as_dict()))
            fh.write("\n")
    return path


class TraceError(ValueError):
    """A JSONL trace :func:`load_jsonl` cannot read; the message names
    the file and the line."""


def load_jsonl(path: PathLike) -> TelemetrySink:
    """Rebuild a :class:`TelemetrySink` from a :func:`write_jsonl` file.

    Tolerates files without the leading ``meta`` line (tracks are then
    re-registered in event order under the default process).  A line
    that is not a record of the format (not JSON, not an object, a key
    missing or of the wrong type) raises :class:`TraceError`; an
    unreadable file raises ``OSError``.
    """
    sink = TelemetrySink()
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                _load_record(sink, json.loads(line))
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
    return sink


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_record(sink: TelemetrySink, record) -> None:
    """Add one decoded line to *sink*; ValueError says what is wrong."""
    if not isinstance(record, dict):
        raise ValueError("a record must be a JSON object")
    if record.get("meta") == "tracks":
        tracks = record.get("tracks")
        if not isinstance(tracks, dict):
            raise ValueError("'tracks' must be an object")
        for name, entry in tracks.items():
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and isinstance(entry[0], str)
            ):
                raise ValueError(f"track {name!r} must be [process, tid]")
            sink.track(name, process=entry[0])
        return
    for key in ("ph", "name", "track"):
        if not isinstance(record.get(key), str):
            raise ValueError(f"{key!r} must be a string")
    ts, dur, args = record.get("ts"), record.get("dur"), record.get("args")
    if not _number(ts):
        raise ValueError("'ts' must be a number")
    if dur is not None and not _number(dur):
        raise ValueError("'dur' must be a number")
    if args is not None and not isinstance(args, dict):
        raise ValueError("'args' must be an object")
    sink.emit(
        Event(record["ph"], record["name"], record["track"], ts, dur, args)
    )


def write_prometheus(sink: TelemetrySink, path: PathLike) -> Path:
    """Write the metrics registry in Prometheus exposition format."""
    path = Path(path)
    path.write_text(sink.metrics.prometheus_text())
    return path

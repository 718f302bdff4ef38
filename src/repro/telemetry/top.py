"""``multinoc top`` — a real-time terminal dashboard for a running mesh.

Dependency-free (ANSI escapes + stdlib only).  The dashboard renders one
``multinoc-live/1`` frame per screen: an NxM mesh heatmap showing link
utilisation and router FIFO occupancy side by side, CPU state badges
with windowed IPC, packet/latency counters, health-monitor status,
checkpoint-ring marks, and sparklines of throughput / in-flight /
simulation rate built from the frame history it has seen.

Two attachment modes:

* **in-process** — ``MeshTop().attach(live)`` subscribes to a
  :class:`~repro.telemetry.live.LiveStream` and repaints on every frame
  (``multinoc system ... --top`` wires this up);
* **remote** — :func:`stream_frames` consumes a
  :mod:`~repro.telemetry.server` ``/frames?format=jsonl`` stream over
  plain :mod:`urllib`, so ``multinoc top --url http://127.0.0.1:9777``
  watches a simulation in another process.  :func:`fetch_frame` grabs
  ``/frame`` once for ``--once`` snapshots (CI smoke uses this); when
  the server is up but no frame has been folded yet (HTTP 404), the
  fetch retries with a short exponential backoff instead of erroring,
  so attaching *while* a run warms up just works.

Colour / glyph policy follows the rest of the telemetry layer: unicode
block ramps and ANSI colour only when the output is a real terminal and
``NO_COLOR`` is unset (:func:`terminal_is_rich`); pure-ASCII everywhere
else.  ``Ctrl-C`` quits the interactive loop.

Sparkline history is a :class:`FrameSeries`: a fixed window per series,
filled by folding frames through
:func:`~repro.telemetry.live.frame_fields`, so a dashboard's series are
named like alert fields.  ``multinoc system --health-report`` folds the
same way into the report's ``sampler`` section.
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.error
import urllib.request
from collections import deque
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from .live import frame_fields

_CLEAR = "\x1b[2J\x1b[H"
_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_RED = "\x1b[31m"
_CYAN = "\x1b[36m"

#: CPU badge colour by state (rich mode only)
_STATE_COLOURS = {
    "halted": _DIM,
    "fetch": _GREEN,
    "decode": _GREEN,
    "execute": _GREEN,
}


#: pure-ASCII intensity ramp — safe for CI logs, pipes and diffs
RAMP_ASCII = " .:-=+*#%@"
#: unicode block ramp — crisper on a real terminal
RAMP_BLOCKS = " ▁▂▃▄▅▆▇█"


def terminal_is_rich(stream=None) -> bool:
    """True when *stream* (default stdout) is an interactive terminal
    and the user has not opted out via the ``NO_COLOR`` convention.

    Renderers use this to pick between unicode/ANSI output and the
    pure-ASCII fallback, so piped output and CI logs stay readable.
    """
    if os.environ.get("NO_COLOR"):
        return False
    stream = stream if stream is not None else sys.stdout
    isatty = getattr(stream, "isatty", None)
    try:
        return bool(isatty and isatty())
    except (ValueError, OSError):  # closed/replaced stream
        return False


def glyph_ramp(ascii_only: Optional[bool] = None) -> str:
    """The intensity ramp to render with; ``None`` auto-detects the TTY."""
    if ascii_only is None:
        ascii_only = not terminal_is_rich()
    return RAMP_ASCII if ascii_only else RAMP_BLOCKS


class FrameSeries:
    """Fixed-size windows of ``(cycle, value)`` points, one per series.

    :meth:`observe` folds a ``multinoc-live/1`` frame: every numeric
    value :func:`~repro.telemetry.live.frame_fields` yields is appended,
    scalars under the field name and vector instances as
    ``field.label`` (``router_occupancy.router00``).  The newest
    ``window`` points per series are kept, so memory stays bounded on
    unbounded runs.  *interval* is the frame stride, for the record.
    """

    def __init__(self, interval: int, window: int = 512):
        if interval < 1:
            raise ValueError("series interval must be at least 1 cycle")
        if window < 1:
            raise ValueError("series window must hold at least 1 point")
        self.interval = interval
        self.window = window
        self.series: Dict[str, Deque[Tuple[int, float]]] = {}

    def append(self, name: str, cycle: int, value: float) -> None:
        """Record one point; creates the series on first use."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = deque(maxlen=self.window)
        series.append((cycle, float(value)))

    def observe(self, frame: Dict[str, Any]) -> None:
        """Fold one frame (a :class:`~repro.telemetry.live.LiveStream`
        subscriber)."""
        cycle = frame.get("cycle", 0)
        for name, value in frame_fields(frame).items():
            if isinstance(value, dict):
                for label, item in value.items():
                    if label != "__label__" and _numeric(item):
                        self.append(f"{name}.{label}", cycle, item)
            elif _numeric(value):
                self.append(name, cycle, value)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump: per-series parallel cycle/value arrays."""
        return {
            "interval": self.interval,
            "window": self.window,
            "series": {
                name: {
                    "cycles": [c for c, _ in points],
                    "values": [v for _, v in points],
                }
                for name, points in self.series.items()
            },
        }

    def sparkline(
        self, name: str, width: int = 64, ascii: Optional[bool] = None
    ) -> str:
        """One series as an intensity strip (newest on the right).

        ``ascii=None`` auto-detects: unicode blocks on an interactive
        terminal, the pure-ASCII ramp when output is piped/captured or
        ``NO_COLOR`` is set, so CI logs stay readable.
        """
        points = self.series.get(name)
        if not points:
            return ""
        ramp = glyph_ramp(ascii)
        values = [v for _, v in points]
        if len(values) > width:
            # bucket-average down to `width` columns
            step = len(values) / width
            values = [
                sum(values[int(i * step) : max(int((i + 1) * step), int(i * step) + 1)])
                / max(int((i + 1) * step) - int(i * step), 1)
                for i in range(width)
            ]
        lo = min(0.0, min(values))
        hi = max(values)
        span = (hi - lo) or 1.0
        return "".join(
            ramp[int((v - lo) / span * (len(ramp) - 1))] for v in values
        )

    def timeline(
        self,
        names: Optional[Iterable[str]] = None,
        width: int = 64,
        ascii: Optional[bool] = None,
    ) -> str:
        """All (or selected) series as aligned sparkline rows."""
        names = list(names) if names is not None else sorted(self.series)
        populated = [n for n in names if self.series.get(n)]
        if not populated:
            return "(no samples)"
        first = min(self.series[n][0][0] for n in populated)
        last = max(self.series[n][-1][0] for n in populated)
        label_w = max(len(n) for n in populated)
        ranges = {}
        for name in populated:
            values = [v for _, v in self.series[name]]
            ranges[name] = f"[{min(values):g}..{max(values):g}]"
        range_w = max(len(r) for r in ranges.values())
        lines = [
            f"cycles {first}..{last}, one sample per {self.interval} cycles"
        ]
        for name in populated:
            lines.append(
                f"{name:<{label_w}} {ranges[name]:>{range_w}} "
                f"|{self.sparkline(name, width, ascii=ascii)}|"
            )
        return "\n".join(lines)


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class MeshTop:
    """Render ``multinoc-live/1`` frames as a terminal dashboard.

    ``color=None`` auto-detects (TTY and no ``NO_COLOR``); pass False
    for the plain-ASCII rendering used by tests and CI artifacts.
    """

    def __init__(
        self,
        *,
        color: Optional[bool] = None,
        stream=None,
        sparkline_width: int = 48,
    ):
        self.stream = stream if stream is not None else sys.stdout
        self.color = (
            terminal_is_rich(self.stream) if color is None else bool(color)
        )
        self.ramp = glyph_ramp(ascii_only=not self.color)
        self.sparkline_width = sparkline_width
        self._series: Optional[FrameSeries] = None
        self._live = None
        self._alerts = None

    # -- in-process attachment --------------------------------------------

    def attach(self, live) -> "MeshTop":
        """Repaint on every frame of an in-process live stream."""
        self._live = live
        live.subscribe(self.display)
        return self

    def attach_alerts(self, engine) -> "MeshTop":
        """Show *engine*'s firing/pending alerts as a banner section."""
        self._alerts = engine
        return self

    def detach(self) -> None:
        if self._live is not None:
            self._live.unsubscribe(self.display)
            self._live = None

    # -- painting ----------------------------------------------------------

    def display(self, frame: Dict[str, Any]) -> None:
        """Clear the screen (when interactive) and paint one frame."""
        text = self.render(frame)
        if self.color:
            self.stream.write(_CLEAR)
        self.stream.write(text + "\n")
        self.stream.flush()

    def render(self, frame: Dict[str, Any]) -> str:
        """One frame as a multi-line string (no screen control codes)."""
        if self._series is None:
            self._series = FrameSeries(
                max(frame.get("stride", 1), 1), window=self.sparkline_width
            )
        self._series.observe(frame)
        lines: List[str] = []
        lines.append(self._header(frame))
        packets = frame.get("packets")
        if packets is not None:
            lines.append(self._packets_line(packets, frame.get("latency")))
        if "mesh" in frame and "routers" in frame:
            lines.append("")
            lines.extend(self._mesh_heatmap(frame))
        links_elided = frame.get("links_elided", 0)
        if links_elided:
            lines.append(
                self._dim(f"  (+{links_elided} quieter links not shown)")
            )
        cpus = frame.get("cpus")
        if cpus:
            lines.append("")
            lines.extend(self._cpu_badges(cpus))
        lines.append("")
        lines.append(self._health_line(frame.get("health")))
        host = frame.get("host")
        if host:
            lines.append(self._host_line(host))
        lines.extend(self._alerts_section())
        checkpoints = frame.get("checkpoints")
        if checkpoints:
            marks = "  ".join(f"@{c}" for c in checkpoints[-6:])
            lines.append(f"checkpoints: {marks}")
        lines.append("")
        lines.extend(self._sparklines())
        return "\n".join(lines)

    # -- sections ----------------------------------------------------------

    def _header(self, frame: Dict[str, Any]) -> str:
        rate = frame.get("sim_rate_hz", 0.0)
        rate_text = (
            f"{rate / 1000:.1f} kHz" if rate >= 1000 else f"{rate:.1f} Hz"
        )
        mesh = frame.get("mesh")
        mesh_text = f"  mesh {mesh[0]}x{mesh[1]}" if mesh else ""
        return self._bold(
            f"MultiNoC live  cycle {frame.get('cycle', 0):,}"
            f"  frame #{frame.get('seq', 0)}{mesh_text}"
            f"  window {frame.get('window', 0)}  sim {rate_text}"
        )

    def _packets_line(
        self, packets: Dict[str, Any], latency: Optional[Dict[str, Any]]
    ) -> str:
        parts = [
            f"packets: {packets.get('delivered', 0)}/{packets.get('injected', 0)}"
            f" delivered (+{packets.get('delta_delivered', 0)})",
            f"in-flight {packets.get('in_flight', 0)}",
            f"thru {packets.get('throughput_flits_per_cycle', 0.0):.3f} flit/cyc",
        ]
        if latency and latency.get("count"):
            parts.append(
                f"lat p50 {latency['p50']} max {latency['max']} cyc"
            )
        return "  ".join(parts)

    def _mesh_heatmap(self, frame: Dict[str, Any]) -> List[str]:
        width, height = frame["mesh"]
        routers = frame["routers"]
        # Prefer explicit coordinates (the "router115" name is ambiguous
        # once a coordinate reaches two digits — x=1,y=15 vs x=11,y=5);
        # fall back to name parsing for pre-topology frames.
        by_coord: Dict[Any, Dict[str, Any]] = {}
        for name, state in routers.items():
            coords = state.get("coords")
            if coords is not None:
                by_coord[(coords[0], coords[1])] = state
        rates = []
        occs = []
        for y in range(height):
            for x in range(width):
                r = by_coord.get((x, y))
                if r is None:
                    r = routers.get(f"router{x}{y}", {})
                rates.append(r.get("rate", 0.0))
                occs.append(r.get("occupancy", 0))
        max_rate = max(max(rates), 1e-9)
        max_occ = max(max(occs), 1)
        topo = frame.get("topology") or {}
        # torus rows/columns wrap: mark the grid edges with ~ so the
        # dashboard shows traffic can re-enter on the far side
        wrap_x = topo.get("topology") == "torus" and width >= 3
        wrap_y = topo.get("topology") == "torus" and height >= 3
        lb, rb = ("~", "~") if wrap_x else ("[", "]")

        def cell(value: float, peak: float) -> str:
            idx = int(value / peak * (len(self.ramp) - 1) + 0.5)
            return self.ramp[max(0, min(idx, len(self.ramp) - 1))] * 2

        lines = [
            self._cyan(
                f"{'link util (out)':<{2 * width + 6}} fifo occupancy"
            )
        ]
        if wrap_y:
            tilde = " " * 5 + "~" * (2 * width)
            lines.append(self._dim(tilde + " " * 8 + tilde))
        for y in range(height - 1, -1, -1):  # row y=0 at the bottom
            util_row = "".join(
                cell(rates[y * width + x], max_rate) for x in range(width)
            )
            occ_row = "".join(
                cell(occs[y * width + x], max_occ) for x in range(width)
            )
            label = f"y{y:<2}" if height > 10 else f"y{y}"
            lines.append(
                f"  {label} {lb}{util_row}{rb}   {label} {lb}{occ_row}{rb}"
            )
        if wrap_y:
            tilde = " " * 5 + "~" * (2 * width)
            lines.append(self._dim(tilde + " " * 8 + tilde))
        lines.append(
            self._dim(
                f"  peak util {max(rates) if rates else 0.0:.3f}"
                f"  peak occupancy {max(occs) if occs else 0} flits"
                f"  watermark {max((r.get('watermark', 0) for r in routers.values()), default=0)}"
            )
        )
        return lines

    def _cpu_badges(self, cpus: Dict[str, Dict[str, Any]]) -> List[str]:
        lines = []
        for name in sorted(cpus):
            cpu = cpus[name]
            state = str(cpu.get("state", "?"))
            badge = f"[{state.upper():^7}]"
            if self.color:
                colour = _STATE_COLOURS.get(state, _YELLOW)
                badge = f"{colour}{badge}{_RESET}"
            lines.append(
                f"  {name:<8} {badge}"
                f" pc=0x{cpu.get('pc', 0):04x}"
                f" retired={cpu.get('retired', 0):<8}"
                f" ipc={cpu.get('ipc', 0.0):.3f}"
            )
        return lines

    def _health_line(self, health: Optional[Dict[str, Any]]) -> str:
        if not health or not health.get("attached"):
            return self._dim("health: (no monitor attached)")
        violations = health.get("violations", 0)
        if violations:
            last = health.get("last_violation", {})
            text = (
                f"health: {violations} violation(s)"
                f"  last: {last.get('check', '?')} @cycle {last.get('cycle', '?')}"
            )
            return f"{_RED}{text}{_RESET}" if self.color else text
        text = f"health: OK  ({health.get('checks_run', 0)} checks run)"
        return f"{_GREEN}{text}{_RESET}" if self.color else text

    def _alerts_section(self) -> List[str]:
        """The alert banner of an engine attached via
        :meth:`attach_alerts`: firing (red) and pending (yellow) series."""
        engine = self._alerts
        if engine is None:
            return []
        firing = engine.firing()
        pending = engine.pending()
        if not firing and not pending:
            return [
                self._dim(f"alerts: none firing ({len(engine.rules)} rule(s))")
            ]
        lines = []
        for a in firing:
            text = (
                f"ALERT firing   {a['series']}"
                f"  since cycle {a['since_cycle']} [{a['severity']}]"
            )
            lines.append(f"{_RED}{_BOLD}{text}{_RESET}" if self.color else text)
        for a in pending:
            text = (
                f"ALERT pending  {a['series']}"
                f"  since cycle {a['since_cycle']} [{a['severity']}]"
            )
            lines.append(f"{_YELLOW}{text}{_RESET}" if self.color else text)
        return lines

    def _host_line(self, host: Dict[str, Any]) -> str:
        """Host observatory panel: RSS, GC pressure, phase shares and
        the headline host-seconds-per-kilocycle figure."""
        regions = host.get("regions") or {}
        phase_text = "  ".join(
            f"{name} {share:.0%}"
            for name, share in sorted(
                regions.items(), key=lambda kv: kv[1], reverse=True
            )[:4]
        )
        parts = [
            f"host: rss {host.get('rss_mb', 0.0):.1f} MB",
            f"gc {host.get('gc_pauses', 0)}"
            f"/{host.get('gc_pause_ms', 0.0):.1f}ms",
            f"{host.get('host_s_per_kcycle', 0.0):.4f} s/kcyc",
        ]
        line = "  ".join(parts)
        if phase_text:
            line += f"  [{phase_text}]"
        return self._cyan(line)

    def _sparklines(self) -> List[str]:
        lines = []
        ascii_only = not self.color
        for name, label in (
            ("throughput", "thru"),
            ("in_flight", "infl"),
            ("sim_rate_hz", "rate"),
            ("host_rss_mb", "rss "),
            ("host_eval_share", "eval"),
        ):
            spark = self._series.sparkline(
                name, width=self.sparkline_width, ascii=ascii_only
            )
            if spark:
                lines.append(f"  {label} {spark}")
        return lines

    # -- tiny style helpers ------------------------------------------------

    def _bold(self, text: str) -> str:
        return f"{_BOLD}{text}{_RESET}" if self.color else text

    def _dim(self, text: str) -> str:
        return f"{_DIM}{text}{_RESET}" if self.color else text

    def _cyan(self, text: str) -> str:
        return f"{_CYAN}{text}{_RESET}" if self.color else text


# -- remote attachment -----------------------------------------------------


def _retryable_attach_error(exc: BaseException) -> bool:
    """Errors worth retrying while a server warms up.

    Two transient shapes: HTTP 404 (server up, no frame folded yet) and
    connection-refused (``--serve`` not listening yet — ``multinoc top``
    launched before the run).  Anything else is a real failure.
    """
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code == 404
    if isinstance(exc, ConnectionRefusedError):
        return True
    if isinstance(exc, urllib.error.URLError):
        return isinstance(exc.reason, ConnectionRefusedError)
    return False


def fetch_frame(
    url: str,
    *,
    timeout: float = 5.0,
    retries: int = 0,
    backoff: float = 0.2,
) -> Dict[str, Any]:
    """GET one latest frame from a telemetry server's ``/frame``.

    A 404 means the server is up but no frame has been folded yet, and
    connection-refused means it is not even listening yet (the run is
    still warming up); with ``retries`` > 0 both back off (``backoff``,
    doubling per attempt) and try again instead of failing — the
    hardened path ``multinoc top --url`` attaches through.
    """
    attempt = 0
    while True:
        try:
            with urllib.request.urlopen(
                url.rstrip("/") + "/frame", timeout=timeout
            ) as resp:
                return json.loads(resp.read())
        except (urllib.error.URLError, OSError) as exc:
            if not _retryable_attach_error(exc) or attempt >= retries:
                raise
            time.sleep(backoff * (2 ** attempt))
            attempt += 1


def stream_frames(
    url: str,
    *,
    limit: Optional[int] = None,
    timeout: float = 30.0,
    retries: int = 0,
    backoff: float = 0.2,
) -> Iterator[Dict[str, Any]]:
    """Yield frames from a telemetry server's JSONL ``/frames`` stream.

    Connecting retries connection-refused with the same bounded backoff
    as :func:`fetch_frame`, so a streaming dashboard can be launched
    before ``--serve`` is listening; once connected, frames block until
    the producer folds one.
    """
    target = url.rstrip("/") + "/frames?format=jsonl"
    if limit is not None:
        target += f"&limit={limit}"
    attempt = 0
    while True:
        try:
            resp = urllib.request.urlopen(target, timeout=timeout)
            break
        except (urllib.error.URLError, OSError) as exc:
            if not _retryable_attach_error(exc) or attempt >= retries:
                raise
            time.sleep(backoff * (2 ** attempt))
            attempt += 1
    with resp:
        for line in resp:
            line = line.strip()
            if line:
                yield json.loads(line)


def watch(
    url: str,
    *,
    once: bool = False,
    frames: Optional[int] = None,
    top: Optional[MeshTop] = None,
    retries: int = 6,
    backoff: float = 0.2,
) -> int:
    """Drive a :class:`MeshTop` from a remote server; returns exit code.

    When the server answers but has no frame yet, ``--once`` snapshots
    retry with a short backoff (~12s total at the defaults) rather than
    erroring; streaming connections already block until the first frame.
    """
    top = top if top is not None else MeshTop()
    try:
        if once:
            top.display(
                fetch_frame(url, retries=retries, backoff=backoff)
            )
            return 0
        for frame in stream_frames(
            url, limit=frames, retries=retries, backoff=backoff
        ):
            top.display(frame)
        return 0
    except KeyboardInterrupt:
        return 0
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            print(
                f"multinoc top: {url} is up but has no frames yet "
                f"(gave up after {retries} retries)",
                file=sys.stderr,
            )
        else:
            print(f"multinoc top: {url} answered {exc.code}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"multinoc top: cannot reach {url}: {exc}", file=sys.stderr)
        return 1

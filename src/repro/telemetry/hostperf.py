"""Host performance observatory: sampling self-profiler + flight recorder.

This module answers "where does the simulator's host time go?" with a
**sampling** profiler that observes the simulator from a side thread
while it runs at full speed, on whichever kernel path it would have
taken anyway: the quiescence fast path and idle fast-forward that make
large fabrics simulable stay in the measurement.

Three pieces:

* :class:`HostPerfProfiler` — a daemon thread samples the simulation
  thread's Python stack every ``interval`` seconds
  (:func:`sys._current_frames`) and attributes the wall-clock time
  since the previous sample to a *(kernel region, subsystem)* bucket.
  Kernel regions (wake-heap drain, eval, watchers, idle
  fast-forward) are recovered from ``# hostperf:`` marker comments in
  :mod:`repro.sim.kernel` via line numbers — zero runtime cost in the
  kernel itself — and subsystems (Router, NI, ProcessorIP, Uart,
  Memory, ...) from the innermost sampled frame's module.  Every sample
  is tagged with the simulated cycle, so the headline metric is
  **host-seconds per simulated kilocycle per subsystem**.  The
  kernel's exact ``ff_spans``/``ff_cycles`` counters, read at attach
  and detach, count the fast-forwarded spans in between.  Because
  every tick's elapsed time lands in *some* bucket (``host``/``other``
  catch everything unrecognised), the attributed total approximates
  measured wall time — the coverage contract ``multinoc system
  --hostperf`` reports and CI gates.

* memory telemetry — RSS (``/proc/self/status``, with a
  :mod:`resource` fallback) and GC pause counts/durations via
  :data:`gc.callbacks`.

* :class:`FlightRecorder` — keeps the last N live frames in a ring and,
  when the run dies (:class:`~repro.sim.kernel.SimulationTimeout`,
  :class:`~repro.telemetry.health.HealthViolation`, any unhandled
  exception), writes a schema'd crash bundle directory
  (``multinoc-crash/1``): manifest, traceback, the frame ring, the
  hostperf snapshot and the health diagnostics.

The profiler only *reads* simulator state: a profiled run is
architecturally bit-identical to an unprofiled one, in both kernel
modes (the ``hostperf`` observer of the equivalence oracle in
``tests/test_equivalence.py``).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import time
import traceback
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

HOSTPERF_SCHEMA = "multinoc-hostperf/1"
CRASH_SCHEMA = "multinoc-crash/1"

#: kernel regions a sample can land in (plus the ``host`` catch-all)
REGIONS = (
    "wake_heap",
    "eval",
    "watchers",
    "fast_forward",
    "run_until",
    "kernel",
    "host",
)

#: frames kept per folded stack for the flamegraph output
MAX_STACK_DEPTH = 40

#: module-path fragment -> subsystem, most specific first (first match
#: wins, so ``noc/router`` must precede ``noc/``)
_SUBSYSTEM_RULES: Tuple[Tuple[str, str], ...] = (
    ("noc/router", "Router"),
    ("noc/ni", "NI"),
    ("noc/", "NoC"),
    ("system/processor_ip", "ProcessorIP"),
    ("r8/assembler", "Toolchain"),
    ("r8/debugger", "Toolchain"),
    ("r8/disassembler", "Toolchain"),
    ("r8/", "ProcessorIP"),
    ("serial/", "Uart"),
    ("memory/", "Memory"),
    ("system/", "System"),
    ("telemetry/", "Telemetry"),
    ("host/", "Host"),
    ("apps/", "Host"),
    ("cc/", "Toolchain"),
    ("core/", "Host"),
    ("sim/", "Kernel"),
)

#: component-ish subsystems: the innermost frame in one of these wins
#: the sample even when outer frames sit in telemetry or host code
_COMPONENT_SUBSYSTEMS = frozenset(
    {"Router", "NI", "NoC", "ProcessorIP", "Uart", "Memory", "System"}
)


def _subsystem_for_filename(filename: str) -> Optional[str]:
    """Map a source path to a subsystem, or None outside ``repro``."""
    normalized = filename.replace("\\", "/")
    marker = "repro/"
    idx = normalized.rfind(marker)
    if idx < 0:
        return None
    tail = normalized[idx + len(marker):]
    for fragment, subsystem in _SUBSYSTEM_RULES:
        if tail.startswith(fragment):
            return subsystem
    return "Host"


def _kernel_region_table() -> Dict[str, Tuple[List[int], List[str]]]:
    """Per-function ``(line numbers, regions)`` parsed from the
    ``# hostperf:`` marker comments in :mod:`repro.sim.kernel`.

    A marker at line L names the region for every line from L until the
    next marker; lines before the first marker fall back to ``kernel``.
    Parsing happens once per process (:func:`inspect.getsourcelines`),
    so the kernel's hot loop carries only comments.
    """
    import inspect

    from ..sim.kernel import Simulator

    table: Dict[str, Tuple[List[int], List[str]]] = {}
    for fn in (Simulator._advance, Simulator._step_lockstep):
        lines, start = inspect.getsourcelines(fn)
        marks: List[Tuple[int, str]] = []
        for offset, line in enumerate(lines):
            text = line.strip()
            pos = text.find("# hostperf:")
            if pos >= 0:
                region = text[pos + len("# hostperf:"):].strip()
                marks.append((start + offset, region))
        linenos = [m[0] for m in marks]
        regions = [m[1] for m in marks]
        table[fn.__name__] = (linenos, regions)
    return table


_REGION_TABLE: Optional[Dict[str, Tuple[List[int], List[str]]]] = None


def _region_for_kernel_frame(co_name: str, lineno) -> str:
    """Region of a sampled frame inside ``Simulator`` by line number."""
    global _REGION_TABLE
    if _REGION_TABLE is None:
        _REGION_TABLE = _kernel_region_table()
    if co_name == "_fast_forward":
        return "fast_forward"
    if co_name == "run_until":
        return "run_until"
    entry = _REGION_TABLE.get(co_name)
    # f_lineno can be None when the sampled thread sits mid-bytecode
    if entry is None or lineno is None:
        return "kernel"
    linenos, regions = entry
    idx = bisect_right(linenos, lineno) - 1
    return regions[idx] if idx >= 0 else "kernel"


def _frame_label(frame) -> str:
    """Compact ``package.module:function`` label for folded stacks."""
    filename = frame.f_code.co_filename.replace("\\", "/")
    parts = filename.rsplit("/", 2)
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    prefix = parts[-2] + "." if len(parts) > 1 else ""
    return f"{prefix}{stem}:{frame.f_code.co_name}"


def read_rss_bytes() -> int:
    """Resident set size of this process, in bytes (0 if unknowable)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # linux reports KiB, macOS bytes
        return usage * 1024 if sys.platform != "darwin" else usage
    except Exception:
        return 0


class HostPerfProfiler:
    """Low-overhead sampling profiler for the simulation host process.

    Parameters
    ----------
    interval:
        Seconds between stack samples (default 5 ms; ~200 samples/s).
    history:
        Recent samples kept for the flight recorder's black box, each a
        ``(wall, cycle, region, subsystem)`` tuple.

    Attaching this profiler does **not** change the kernel's execution
    mode: the quiescent fast path, idle fast-forward and watcher cadence
    all run exactly as in an unobserved simulation.
    """

    def __init__(
        self,
        *,
        interval: float = 0.005,
        history: int = 512,
    ):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval

        #: (region, subsystem) -> attributed host seconds
        self.seconds: Dict[Tuple[str, str], float] = {}
        #: folded stack -> sample count (flamegraph input)
        self.stack_counts: Dict[str, int] = {}
        #: black box: recent (wall, cycle, region, subsystem) samples
        self.recent: deque = deque(maxlen=history)
        self.samples = 0

        self.sim = None
        self._ident: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

        self._start_wall: Optional[float] = None
        self._start_cycle = 0
        self._wall_s = 0.0
        self._end_cycle = 0

        # the kernel's (ff_spans, ff_cycles) at attach and at detach
        self._ff_attach = (0, 0)
        self._ff_detach: Optional[Tuple[int, int]] = None

        # memory telemetry
        self.rss_bytes = 0
        self.rss_peak_bytes = 0
        self.gc_pauses = 0
        self.gc_pause_s = 0.0
        self._gc_t0: Optional[float] = None
        self._gc_hooked = False

    # -- wiring ------------------------------------------------------------

    def attach(self, sim) -> "HostPerfProfiler":
        """Advertise on *sim* and note its fast-forward counters.

        Attachment is observational only: the kernel stays on whichever
        path it was on and installs no hook.
        """
        self.sim = sim
        sim.hostperf = self
        self._ff_attach = (sim.ff_spans, sim.ff_cycles)
        self._ff_detach = None
        return self

    def detach(self) -> None:
        """Stop sampling and unhook from the simulator."""
        self.stop()
        if self.sim is not None:
            if self._ff_detach is None:
                self._ff_detach = (self.sim.ff_spans, self.sim.ff_cycles)
            if getattr(self.sim, "hostperf", None) is self:
                self.sim.hostperf = None

    def _ff_counts(self) -> Tuple[int, int]:
        if self.sim is None:
            return (0, 0)
        spans, cycles = self._ff_detach or (
            self.sim.ff_spans, self.sim.ff_cycles
        )
        return spans - self._ff_attach[0], cycles - self._ff_attach[1]

    @property
    def ff_spans(self) -> int:
        """Idle spans the kernel fast-forwarded while attached."""
        return self._ff_counts()[0]

    @property
    def ff_cycles(self) -> int:
        """Cycles skipped in those spans."""
        return self._ff_counts()[1]

    # -- sampling ----------------------------------------------------------

    def start(self) -> "HostPerfProfiler":
        """Begin sampling the *calling* thread (the one driving the sim)."""
        if self._thread is not None:
            return self
        self._ident = threading.get_ident()
        self._start_cycle = self.sim.cycle if self.sim is not None else 0
        self._stop.clear()
        if not self._gc_hooked:
            gc.callbacks.append(self._on_gc)
            self._gc_hooked = True
        self.rss_bytes = read_rss_bytes()
        self.rss_peak_bytes = max(self.rss_peak_bytes, self.rss_bytes)
        # the window opens here, and the sampler's first interval opens
        # at the same stamp: time before the OS schedules the sampler
        # thread is attributed, not lost
        self._start_wall = perf_counter()
        self._thread = threading.Thread(
            target=self._run,
            args=(self._start_wall,),
            name="hostperf-sampler",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> "HostPerfProfiler":
        """Stop the sampler thread; safe to call more than once."""
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        if self._start_wall is not None:
            self._wall_s += perf_counter() - self._start_wall
            self._start_wall = None
        self._end_cycle = self.sim.cycle if self.sim is not None else 0
        if self._gc_hooked:
            try:
                gc.callbacks.remove(self._on_gc)
            except ValueError:
                pass
            self._gc_hooked = False
        self.rss_bytes = read_rss_bytes()
        self.rss_peak_bytes = max(self.rss_peak_bytes, self.rss_bytes)
        return self

    def _run(self, last: float) -> None:
        ticks = 0
        while not self._stop.wait(self.interval):
            now = perf_counter()
            self._tick(now - last, now)
            last = now
            ticks += 1
            if ticks % 16 == 0:
                rss = read_rss_bytes()
                self.rss_bytes = rss
                if rss > self.rss_peak_bytes:
                    self.rss_peak_bytes = rss
        # attribute the final partial interval so the per-bucket total
        # tracks measured wall time (the >=90% coverage contract)
        now = perf_counter()
        if now > last:
            self._tick(now - last, now)

    def _tick(self, dt: float, now: float) -> None:
        frames = sys._current_frames().get(self._ident)
        if frames is None:
            return
        region, subsystem, folded = self._classify(frames)
        cycle = self.sim.cycle if self.sim is not None else 0
        with self._lock:
            key = (region, subsystem)
            self.seconds[key] = self.seconds.get(key, 0.0) + dt
            self.stack_counts[folded] = self.stack_counts.get(folded, 0) + 1
            self.samples += 1
            self.recent.append((now, cycle, region, subsystem))

    def _classify(self, frame) -> Tuple[str, str, str]:
        """One sampled stack -> (region, subsystem, folded stack)."""
        region: Optional[str] = None
        subsystem: Optional[str] = None
        fallback: Optional[str] = None
        chain = []
        f = frame
        # the chain belongs to a thread that keeps running while we walk
        # it; a link read mid-update need not be a frame
        while isinstance(f, FrameType):
            chain.append(f)
            f = f.f_back
        # innermost first: the leaf component wins the subsystem, the
        # innermost Simulator frame wins the region
        for f in chain:
            filename = f.f_code.co_filename
            mapped = _subsystem_for_filename(filename)
            if mapped is None:
                continue
            if mapped == "Kernel":
                if region is None and filename.replace("\\", "/").endswith(
                    "sim/kernel.py"
                ):
                    region = _region_for_kernel_frame(
                        f.f_code.co_name, f.f_lineno
                    )
                if fallback is None:
                    fallback = "Kernel"
            elif subsystem is None and mapped in _COMPONENT_SUBSYSTEMS:
                subsystem = mapped
            elif fallback is None:
                fallback = mapped
            if region is not None and subsystem is not None:
                break
        if region is None:
            region = "host"
        if subsystem is None:
            subsystem = fallback or "other"
        folded = ";".join(
            _frame_label(f)
            for f in reversed(chain[:MAX_STACK_DEPTH])
        )
        return region, subsystem, folded

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif phase == "stop":
            if self._gc_t0 is not None:
                self.gc_pause_s += perf_counter() - self._gc_t0
                self._gc_t0 = None
            self.gc_pauses += 1

    # -- reporting ---------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Wall time under observation (running total while sampling)."""
        live = (
            perf_counter() - self._start_wall
            if self._start_wall is not None
            else 0.0
        )
        return self._wall_s + live

    @property
    def attributed_seconds(self) -> float:
        with self._lock:
            return sum(self.seconds.values())

    @property
    def sim_cycles(self) -> int:
        end = (
            self.sim.cycle
            if self._start_wall is not None and self.sim is not None
            else self._end_cycle
        )
        return max(end - self._start_cycle, 0)

    def by_subsystem(self) -> Dict[str, float]:
        """Host seconds per subsystem, descending."""
        with self._lock:
            totals: Dict[str, float] = {}
            for (_, subsystem), s in self.seconds.items():
                totals[subsystem] = totals.get(subsystem, 0.0) + s
        return dict(
            sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
        )

    def by_region(self) -> Dict[str, float]:
        """Host seconds per kernel region, descending."""
        with self._lock:
            totals: Dict[str, float] = {}
            for (region, _), s in self.seconds.items():
                totals[region] = totals.get(region, 0.0) + s
        return dict(
            sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
        )

    def snapshot(self) -> Dict[str, Any]:
        """The full observation as a ``multinoc-hostperf/1`` document."""
        wall = self.wall_seconds
        cycles = self.sim_cycles
        kcycles = cycles / 1000.0
        subsystems = {
            name: {
                "seconds": round(s, 6),
                "share": round(s / wall, 4) if wall > 0 else 0.0,
                "host_s_per_kcycle": (
                    round(s / kcycles, 6) if kcycles > 0 else None
                ),
            }
            for name, s in self.by_subsystem().items()
        }
        return {
            "schema": HOSTPERF_SCHEMA,
            "interval_s": self.interval,
            "samples": self.samples,
            "wall_s": round(wall, 6),
            "attributed_s": round(self.attributed_seconds, 6),
            "cycles": cycles,
            "sim_rate_hz": round(cycles / wall, 1) if wall > 0 else 0.0,
            "host_s_per_kcycle": (
                round(wall / kcycles, 6) if kcycles > 0 else None
            ),
            "regions": {
                name: round(s, 6) for name, s in self.by_region().items()
            },
            "subsystems": subsystems,
            "fast_forward": {
                "spans": self.ff_spans,
                "cycles": self.ff_cycles,
            },
            "memory": {
                "rss_bytes": self.rss_bytes,
                "rss_peak_bytes": self.rss_peak_bytes,
                "gc_pauses": self.gc_pauses,
                "gc_pause_s": round(self.gc_pause_s, 6),
            },
        }

    def report(self, top: int = 12) -> str:
        """Formatted host-profile table (the CLI's stdout report)."""
        wall = self.wall_seconds
        cycles = self.sim_cycles
        kcycles = cycles / 1000.0
        if not self.samples:
            return "host profile (no samples collected)"
        rate = cycles / wall if wall > 0 else 0.0
        lines = [
            f"host profile: {self.samples} samples over {wall:.2f} s, "
            f"{cycles:,} cycles ({rate:,.0f} cycles/s)",
            f"{'subsystem':<14} {'time':>10} {'share':>7} "
            f"{'host-s/kcyc':>12}",
        ]
        for name, s in list(self.by_subsystem().items())[:top]:
            per_kcyc = (
                f"{s / kcycles:>12.6f}" if kcycles > 0 else f"{'-':>12}"
            )
            lines.append(
                f"{name:<14} {s * 1e3:>8.1f}ms "
                f"{s / wall if wall > 0 else 0:>6.1%} {per_kcyc}"
            )
        region_text = "  ".join(
            f"{name} {s / wall if wall > 0 else 0:.0%}"
            for name, s in list(self.by_region().items())[:6]
        )
        lines.append(f"regions: {region_text}")
        if self.ff_spans:
            lines.append(
                f"fast-forward: {self.ff_spans} spans, "
                f"{self.ff_cycles:,} cycles skipped"
            )
        lines.append(
            f"memory: rss {self.rss_bytes / 1e6:.1f} MB "
            f"(peak {self.rss_peak_bytes / 1e6:.1f}), "
            f"gc {self.gc_pauses} pause(s) / {self.gc_pause_s * 1e3:.1f} ms"
        )
        return "\n".join(lines)

    def folded_stacks(self) -> List[str]:
        """``frame;frame;leaf count`` lines for flamegraph.pl/speedscope
        (the same folded format ``multinoc analyze --flamegraph`` emits).
        """
        with self._lock:
            items = sorted(
                self.stack_counts.items(), key=lambda kv: kv[1], reverse=True
            )
        return [f"{stack} {count}" for stack, count in items if stack]

    # -- surfacing ---------------------------------------------------------

    def frame_fields(self) -> Dict[str, Any]:
        """Compact host panel for ``multinoc-live/1`` frames."""
        wall = self.wall_seconds
        regions = {
            name: round(s / wall, 4) if wall > 0 else 0.0
            for name, s in list(self.by_region().items())[:6]
        }
        kcycles = self.sim_cycles / 1000.0
        return {
            "attached": True,
            "samples": self.samples,
            "rss_mb": round(self.rss_bytes / 1e6, 1),
            "gc_pauses": self.gc_pauses,
            "gc_pause_ms": round(self.gc_pause_s * 1e3, 2),
            "regions": regions,
            "host_s_per_kcycle": (
                round(wall / kcycles, 6) if kcycles > 0 else 0.0
            ),
        }

    def bind_metrics(self, registry) -> None:
        """Expose the observatory through a metrics registry (and thus
        ``/metrics``): RSS, sample count, GC pauses, attributed wall."""
        registry.gauge(
            "host_rss_bytes", "resident set size of the simulator process"
        ).set_function(lambda: self.rss_bytes)
        registry.gauge(
            "host_profile_samples", "stack samples collected by hostperf"
        ).set_function(lambda: self.samples)
        registry.gauge(
            "host_gc_pauses", "garbage-collector pauses observed"
        ).set_function(lambda: self.gc_pauses)
        registry.gauge(
            "host_attributed_seconds",
            "wall seconds attributed to (region, subsystem) buckets",
        ).set_function(lambda: self.attributed_seconds)

    def run_metrics(self) -> Dict[str, float]:
        """Flat numeric summary for the cross-run registry, so
        ``multinoc runs trend`` can gate host-performance regressions."""
        wall = self.wall_seconds
        kcycles = self.sim_cycles / 1000.0
        metrics: Dict[str, float] = {
            "host_wall_s": round(wall, 4),
            "host_rss_peak_mb": round(self.rss_peak_bytes / 1e6, 1),
            "host_gc_pause_ms": round(self.gc_pause_s * 1e3, 2),
        }
        if kcycles > 0:
            metrics["host_s_per_kcycle"] = round(wall / kcycles, 6)
        if wall > 0:
            metrics["host_sample_coverage"] = round(
                self.attributed_seconds / wall, 4
            )
        return metrics


class FlightRecorder:
    """Crash black box: last N live frames + state bundles on failure.

    Subscribe to a :class:`~repro.telemetry.live.LiveStream` with
    :meth:`watch` (purely observational — frames are copied into a
    bounded ring), then either wrap the run in :meth:`armed` or call
    :meth:`record` from an exception handler.  Each crash writes one
    ``multinoc-crash/1`` bundle directory under *root*::

        crash-<utc stamp>-<pid>/
            manifest.json    # schema, exception, cycle, file map
            traceback.txt    # formatted exception + stack
            frames.jsonl     # the last N multinoc-live/1 frames
            hostperf.json    # sampling-profiler snapshot (when attached)
            health.json      # health diagnostics (monitor or timeout)
    """

    def __init__(self, root, *, keep_frames: int = 32):
        if keep_frames < 1:
            raise ValueError("keep_frames must keep at least 1 frame")
        self.root = Path(root)
        self.frames: deque = deque(maxlen=keep_frames)
        self._live = None

    # -- observation -------------------------------------------------------

    def watch(self, live) -> "FlightRecorder":
        """Mirror *live*'s frames into the ring; returns self."""
        self._live = live
        live.subscribe(self._on_frame)
        return self

    def unwatch(self) -> None:
        if self._live is not None:
            self._live.unsubscribe(self._on_frame)
            self._live = None

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        self.frames.append(frame)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def armed(self, *, sim=None, hostperf=None, health=None):
        """Run a block under the recorder: any exception writes a bundle
        (path stored as :attr:`last_bundle`) and is re-raised."""
        try:
            yield self
        except Exception as exc:
            self.record(exc, sim=sim, hostperf=hostperf, health=health)
            raise

    def record(
        self,
        exc: BaseException,
        *,
        sim=None,
        hostperf=None,
        health=None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write one crash bundle for *exc*; returns the bundle path."""
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        base = self.root / f"crash-{stamp}-{os.getpid()}"
        bundle = base
        attempt = 1
        while bundle.exists():
            attempt += 1
            bundle = Path(f"{base}-{attempt}")
        bundle.mkdir(parents=True)

        files: Dict[str, str] = {"traceback": "traceback.txt"}
        (bundle / "traceback.txt").write_text(
            "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
        )

        files["frames"] = "frames.jsonl"
        (bundle / "frames.jsonl").write_text(
            "".join(json.dumps(frame) + "\n" for frame in self.frames)
        )

        if hostperf is not None:
            files["hostperf"] = "hostperf.json"
            (bundle / "hostperf.json").write_text(
                json.dumps(hostperf.snapshot(), indent=2)
            )

        diagnostics = self._health_document(exc, health)
        if diagnostics is not None:
            files["health"] = "health.json"
            (bundle / "health.json").write_text(
                json.dumps(diagnostics, indent=2)
            )

        manifest = {
            "schema": CRASH_SCHEMA,
            "created_unix": time.time(),
            "exception": {
                "type": type(exc).__name__,
                "message": str(exc),
            },
            "cycle": sim.cycle if sim is not None else None,
            "frames": len(self.frames),
            "files": files,
            "meta": dict(meta or {}),
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest, indent=2))
        self.last_bundle = bundle
        return bundle

    #: path of the most recent bundle written by :meth:`record`
    last_bundle: Optional[Path] = None

    def _health_document(
        self, exc: BaseException, health
    ) -> Optional[Dict[str, Any]]:
        """Best diagnostics available: the monitor's full report, a
        timeout's embedded dump, or a violation's own details."""
        if health is not None:
            try:
                return health.report()
            except Exception:
                pass
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics is not None:
            return {"diagnostics": diagnostics}
        as_dict = getattr(exc, "as_dict", None)
        if callable(as_dict):
            return {"violation": as_dict()}
        return None

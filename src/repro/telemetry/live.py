"""Live observation plane: streaming schema'd telemetry frames.

The passive telemetry layer records what the platform did and the health
monitor raises when something is wrong; this module makes a *running*
simulation watchable.  A :class:`LiveStream` attaches to a
:class:`~repro.sim.kernel.Simulator` as a strided watcher
(:meth:`~repro.sim.kernel.Simulator.add_watcher` with ``stride``, so
frames keep their cadence across idle fast-forward spans) and, every
``stride`` cycles, folds the raw counters into one compact, JSON-ready
frame (schema ``multinoc-live/1``):

* per-link flit-rate deltas (utilisation against the 2-cycle handshake
  bound), filtered to the busiest ``max_links`` so frame size stays
  bounded on large meshes;
* per-router FIFO occupancy and high-water marks;
* per-CPU state, program counter and windowed IPC;
* packet counters, windowed throughput and windowed latency;
* health-monitor status (violations, checks run) when one is attached;
* checkpoint-ring marks when a ring is attached;
* the wall-clock simulation rate (simulated cycles per real second).

Frames fan out three ways: in-process subscriber callbacks (this
module), a localhost HTTP endpoint (:mod:`repro.telemetry.server`:
``/metrics`` Prometheus scrape + ``/frames`` SSE/JSONL stream), and the
``multinoc top`` terminal dashboard (:mod:`repro.telemetry.top`).

Frames are the one strided view of a running system: every consumer
reads numbers out of them through :func:`frame_fields` and the
:data:`FRAME_FIELDS` table next to the writer — alert rules
(:mod:`repro.telemetry.alerts`), the ``multinoc top`` sparklines and
the health report's series (:class:`~repro.telemetry.top.FrameSeries`).

The stream only *reads* simulator state — an observed run is
bit-identical to an unobserved one (the ``live`` observer of the
equivalence oracle in ``tests/test_equivalence.py`` guards this in both
kernel modes).
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..noc.topology import port_label

Address = Tuple[int, int]

LIVE_SCHEMA = "multinoc-live/1"


# -- reading frames ----------------------------------------------------------


class FrameField(NamedTuple):
    """One number (or string) a frame carries, read the same way by
    alert rules, ``multinoc top`` and the health report's series."""

    name: str
    #: label dimension of a vector field (one instance per label value);
    #: None for a scalar
    label: Optional[str]
    read: Callable[[Dict[str, Any]], Any]
    help: str


def _at(track: str, key: str) -> Callable[[Dict[str, Any]], Any]:
    """Scalar reader: ``frame[track][key]``, None when absent."""
    return lambda f: (f.get(track) or {}).get(key)


def _each(
    track: str, key: str, default: Any
) -> Callable[[Dict[str, Any]], Any]:
    """Vector reader: ``{label: frame[track][label][key]}``."""
    return lambda f: {
        k: v.get(key, default) for k, v in (f.get(track) or {}).items()
    }


def _health(frame: Dict[str, Any]) -> str:
    health = frame.get("health")
    if not health or not health.get("attached"):
        return "detached"
    return "violating" if health.get("violations") else "ok"


def _host_eval_share(frame: Dict[str, Any]) -> Optional[float]:
    host = frame.get("host")
    if not host:
        return None
    return (host.get("regions") or {}).get("eval", 0.0)


#: every field a frame yields, by name; the one declaration of each
#: field's label dimension, reader and help text
FRAME_FIELDS: Dict[str, FrameField] = {
    field.name: field
    for field in (
        FrameField("link_util", "link", lambda f: f.get("links") or {},
                   "per-link utilisation in [0,1]"),
        FrameField("router_occupancy", "router",
                   _each("routers", "occupancy", 0),
                   "FIFO flits queued per router"),
        FrameField("router_watermark", "router",
                   _each("routers", "watermark", 0),
                   "FIFO high-water mark per router"),
        FrameField("router_rate", "router", _each("routers", "rate", 0.0),
                   "output flits per cycle per router"),
        FrameField("cpu_ipc", "cpu", _each("cpus", "ipc", 0.0),
                   "windowed instructions/cycle per CPU"),
        FrameField("cpu_retired", "cpu", _each("cpus", "retired", 0),
                   "instructions retired per CPU"),
        FrameField("cpu_state", "cpu", _each("cpus", "state", "?"),
                   "CPU FSM state string per CPU"),
        FrameField("cycle", None, lambda f: f.get("cycle"), "frame cycle"),
        FrameField("sim_rate_hz", None, lambda f: f.get("sim_rate_hz"),
                   "simulated cycles per wall second"),
        FrameField("in_flight", None, _at("packets", "in_flight"),
                   "packets currently in the mesh"),
        FrameField("injected", None, _at("packets", "injected"),
                   "packets injected since launch"),
        FrameField("delivered", None, _at("packets", "delivered"),
                   "packets delivered since launch"),
        FrameField("delta_injected", None, _at("packets", "delta_injected"),
                   "packets injected this window"),
        FrameField("delta_delivered", None,
                   _at("packets", "delta_delivered"),
                   "packets delivered this window"),
        FrameField("throughput", None,
                   _at("packets", "throughput_flits_per_cycle"),
                   "delivered flits per cycle this window"),
        FrameField("latency_count", None, _at("latency", "count"),
                   "packets delivered this window"),
        FrameField("latency_mean", None, _at("latency", "mean"),
                   "mean latency of this window's packets (cycles)"),
        FrameField("latency_p50", None, _at("latency", "p50"),
                   "p50 latency of this window's packets (cycles)"),
        FrameField("latency_p90", None, _at("latency", "p90"),
                   "p90 latency of this window's packets (cycles)"),
        FrameField("latency_p99", None, _at("latency", "p99"),
                   "p99 latency of this window's packets (cycles)"),
        FrameField("latency_max", None, _at("latency", "max"),
                   "max latency of this window's packets (cycles)"),
        FrameField("health", None, _health,
                   'monitor status: "ok", "violating" or "detached"'),
        FrameField("health_violations", None,
                   lambda f: (f.get("health") or {}).get("violations", 0),
                   "health violations so far"),
        FrameField("links_elided", None, lambda f: f.get("links_elided"),
                   "active links dropped by the frame's top-N bound"),
        FrameField("host_rss_mb", None, _at("host", "rss_mb"),
                   "simulator resident set size in MB (host track)"),
        FrameField("host_eval_share", None, _host_eval_share,
                   "share of host time in the kernel's eval phase "
                   "(host track)"),
    )
}


def frame_fields(frame: Dict[str, Any]) -> Dict[str, Any]:
    """Read every :data:`FRAME_FIELDS` entry off one frame.

    Vector fields become dicts tagged with their label dimension under
    the ``__label__`` key; fields with no data in this frame are
    omitted (alert conditions on them neither hold nor resolve
    instances).
    """
    fields: Dict[str, Any] = {}
    for name, field in FRAME_FIELDS.items():
        value = field.read(frame)
        if field.label is None:
            if value is not None:
                fields[name] = value
        elif value:
            fields[name] = {"__label__": field.label, **value}
    return fields


class LiveStream:
    """Strided live-telemetry frame producer for one simulation.

    Parameters
    ----------
    stride:
        Cycles between frames.  Each frame's rates are computed over the
        cycles since the previous frame ("the window").
    max_links:
        Keep only the busiest N links per frame (by flit rate); the
        number of elided active links is reported as ``links_elided``;
        idle links are always dropped.
    """

    def __init__(
        self,
        *,
        stride: int = 1024,
        max_links: int = 64,
    ):
        if stride < 1:
            raise ValueError("live stream stride must be at least 1 cycle")
        if max_links < 1:
            raise ValueError("max_links must keep at least 1 link")
        self.stride = stride
        self.max_links = max_links

        self.sim = None
        self.mesh = None
        self.stats = None
        self.processors: List[Any] = []
        self.host = None
        self.ring = None

        self.frames_emitted = 0
        self.latest: Optional[Dict[str, Any]] = None
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []

        self._last_cycle = 0
        self._last_wall = 0.0
        self._prev_links: Dict[tuple, int] = {}
        self._prev_retired: Dict[str, int] = {}
        self._prev_injected = 0
        self._prev_delivered = 0
        self._prev_flits = 0
        self._prev_lat_count = 0
        self._router_names: Dict[Address, str] = {}

    # -- wiring ------------------------------------------------------------

    def attach(
        self,
        sim,
        system=None,
        *,
        mesh=None,
        stats=None,
        processors: Iterable[Any] = (),
        host=None,
        ring=None,
    ) -> "LiveStream":
        """Hook into *sim* on the frame stride; returns self.

        Pass a :class:`~repro.system.multinoc.MultiNoC` as *system* to
        wire mesh, stats and processors automatically (the same shape as
        :meth:`HealthMonitor.attach`).  *ring* defaults to
        ``sim.checkpoint_ring`` when a debugger has installed one.
        """
        if system is not None:
            mesh = system.mesh
            stats = system.stats
            processors = list(system.processors.values())
        self.sim = sim
        self.mesh = mesh
        self.stats = stats
        self.processors = list(processors)
        self.host = host
        self.ring = ring if ring is not None else getattr(
            sim, "checkpoint_ring", None
        )
        if mesh is not None:
            self._router_names = {
                addr: router.name for addr, router in mesh.routers.items()
            }

        self._last_cycle = sim.cycle
        self._last_wall = time.perf_counter()
        if stats is not None:
            self._prev_links = dict(stats.flits_sent)
            self._prev_injected = stats.packets_injected
            self._prev_delivered = stats.packets_delivered
            self._prev_flits = stats.delivered_flits
            self._prev_lat_count = len(stats.latencies)
        for proc in self.processors:
            self._prev_retired[proc.name] = proc.cpu.instructions_retired

        sim.add_watcher(self.on_stride, self.stride)
        sim.live = self
        return self

    def detach(self) -> None:
        """Unhook from the simulator; the run continues unobserved."""
        if self.sim is not None:
            self.sim.remove_watcher(self.on_stride)
            if getattr(self.sim, "live", None) is self:
                self.sim.live = None

    # -- subscribers -------------------------------------------------------

    def subscribe(self, fn: Callable[[Dict[str, Any]], None]):
        """Call *fn(frame)* for every emitted frame; returns *fn*.

        Subscribers run on the simulation thread and must only observe
        (an exception from a subscriber aborts the run loudly).
        """
        if fn not in self._subscribers:
            self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn) -> None:
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    def mirror_to(self, sink) -> "LiveStream":
        """Mirror every frame into *sink* as an instant event.

        Each frame lands on track ``live`` as a ``frame`` event whose
        args carry the frame verbatim, so a stored JSONL trace contains
        the exact frames the run was observed with —
        ``multinoc alerts check RULES --trace`` replays them through the
        same rule engine for verdicts identical to the live run's.

        Opt-in (never wired by default): mirroring adds events to the
        sink, and the equivalence oracle compares observed and
        unobserved event streams like for like.
        """
        sink.track("live", process="sim")

        def _mirror(frame: Dict[str, Any], _sink=sink) -> None:
            _sink.instant("live", "frame", frame.get("cycle", 0), frame=frame)

        self.subscribe(_mirror)
        return self

    # -- frame production --------------------------------------------------

    def on_stride(self, cycle: int) -> None:
        """Strided kernel watcher: build and publish one frame."""
        self.emit(self.build_frame(cycle))

    def force(self, cycle: Optional[int] = None) -> Dict[str, Any]:
        """Emit a frame now, off-stride (end of run, tests); returns it."""
        if cycle is None:
            cycle = self.sim.cycle if self.sim is not None else 0
        frame = self.build_frame(cycle)
        self.emit(frame)
        return frame

    def emit(self, frame: Dict[str, Any]) -> None:
        self.latest = frame
        self.frames_emitted += 1
        for fn in self._subscribers:
            fn(frame)

    def build_frame(self, cycle: int) -> Dict[str, Any]:
        """Fold current counters into one ``multinoc-live/1`` frame."""
        window = max(cycle - self._last_cycle, 1)
        wall = time.perf_counter()
        wall_dt = wall - self._last_wall
        sim_rate = (cycle - self._last_cycle) / wall_dt if wall_dt > 0 else 0.0
        frame: Dict[str, Any] = {
            "schema": LIVE_SCHEMA,
            "seq": self.frames_emitted,
            "cycle": cycle,
            "stride": self.stride,
            "window": window,
            "wall_unix": time.time(),
            "sim_rate_hz": round(sim_rate, 1),
        }
        if self.mesh is not None:
            frame["mesh"] = [self.mesh.width, self.mesh.height]
            topology = getattr(self.mesh, "topology", None)
            if topology is not None:
                frame["topology"] = topology.descriptor()

        router_rate: Dict[Address, float] = {}
        if self.stats is not None:
            frame["links"], frame["links_elided"] = self._link_rates(
                window, router_rate
            )
            frame["packets"] = self._packet_counters(window)
            frame["latency"] = self._window_latency()
        if self.mesh is not None:
            frame["routers"] = self._router_states(router_rate)
        if self.processors:
            frame["cpus"] = self._cpu_states(window)
        frame["health"] = self._health_status()
        ring = self.ring
        if ring is None and self.sim is not None:
            ring = getattr(self.sim, "checkpoint_ring", None)
        frame["checkpoints"] = (
            [entry.cycle for entry in ring.entries] if ring is not None else []
        )
        # the host track appears only while a HostPerfProfiler is attached
        hostperf = getattr(self.sim, "hostperf", None)
        if hostperf is not None:
            frame["host"] = hostperf.frame_fields()

        self._last_cycle = cycle
        self._last_wall = wall
        return frame

    # -- per-track folds ---------------------------------------------------

    def _link_rates(
        self, window: int, router_rate: Dict[Address, float]
    ) -> Tuple[Dict[str, float], int]:
        """Per-link utilisation deltas; fills *router_rate* as a side
        product (per-router output flit rate for the heatmap)."""
        current = self.stats.flits_sent
        prev = self._prev_links
        active: List[Tuple[float, str]] = []
        for key, count in current.items():
            delta = count - prev.get(key, 0)
            if delta <= 0:
                continue
            addr, port = key
            rate = delta / window
            router_rate[addr] = router_rate.get(addr, 0.0) + rate
            # 2-cycle handshake bound: rate*2 is utilisation in [0, 1]
            active.append(
                (rate * 2, f"{self._router_name(addr)}.{port_label(port)}")
            )
        self._prev_links = dict(current)
        active.sort(key=lambda item: (-item[0], item[1]))
        kept = active[: self.max_links]
        return (
            {name: round(util, 4) for util, name in kept},
            len(active) - len(kept),
        )

    def _router_name(self, addr: Address) -> str:
        name = self._router_names.get(addr)
        return name if name is not None else f"router{addr[0]}{addr[1]}"

    def _packet_counters(self, window: int) -> Dict[str, Any]:
        s = self.stats
        injected = s.packets_injected
        delivered = s.packets_delivered
        flits = s.delivered_flits
        out = {
            "injected": injected,
            "delivered": delivered,
            "in_flight": s.in_flight_count,
            "delta_injected": injected - self._prev_injected,
            "delta_delivered": delivered - self._prev_delivered,
            "throughput_flits_per_cycle": round(
                (flits - self._prev_flits) / window, 4
            ),
        }
        self._prev_injected = injected
        self._prev_delivered = delivered
        self._prev_flits = flits
        return out

    def _window_latency(self) -> Dict[str, float]:
        """Latency of packets delivered inside this frame's window."""
        latencies = self.stats.latencies
        tail = latencies[self._prev_lat_count :]
        self._prev_lat_count = len(latencies)
        if not tail:
            return {"count": 0}
        ordered = sorted(tail)
        last = len(ordered) - 1
        return {
            "count": len(ordered),
            "mean": round(sum(ordered) / len(ordered), 2),
            "p50": ordered[len(ordered) // 2],
            "p90": ordered[min((len(ordered) * 9) // 10, last)],
            "p99": ordered[min((len(ordered) * 99) // 100, last)],
            "max": ordered[-1],
        }

    def _router_states(
        self, router_rate: Dict[Address, float]
    ) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for addr, router in self.mesh.routers.items():
            out[router.name] = {
                # explicit grid position: router names like "router115"
                # are ambiguous once a coordinate reaches two digits
                "coords": [addr[0], addr[1]],
                "occupancy": sum(len(f) for f in router.fifos),
                "watermark": max(f.watermark for f in router.fifos),
                "rate": round(router_rate.get(addr, 0.0), 4),
            }
        return out

    def _cpu_states(self, window: int) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for proc in self.processors:
            cpu = proc.cpu
            retired = cpu.instructions_retired
            delta = retired - self._prev_retired.get(proc.name, 0)
            self._prev_retired[proc.name] = retired
            out[proc.name] = {
                "state": "halted" if cpu.halted else cpu.fsm_state,
                "pc": cpu.state.pc,
                "retired": retired,
                "ipc": round(delta / window, 4),
            }
        return out

    def _health_status(self) -> Dict[str, Any]:
        monitor = getattr(self.sim, "health", None) if self.sim else None
        if monitor is None:
            return {"attached": False}
        out: Dict[str, Any] = {
            "attached": True,
            "checks_run": monitor.checks_run,
            "violations": len(monitor.violations),
        }
        if monitor.violations:
            out["last_violation"] = monitor.violations[-1].as_dict()
        return out


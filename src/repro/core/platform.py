"""The MultiNoC platform builder — the library's main entry point.

The paper frames MultiNoC as "an exercise of implementing and making
available a design platform on top of which applications can be
effectively and rapidly prototyped" (platform-based design, Section 5).
:class:`MultiNoCPlatform` is that platform: describe the instance you
want (the paper's 2x2 by default, or any mesh with any number of
processor and memory IPs), :meth:`launch` it, and drive it through the
host API.

    >>> from repro import MultiNoCPlatform
    >>> session = MultiNoCPlatform.standard().launch()
    >>> session.host.sync()
    >>> session.run(1, "  LDI R1, 7\\n  LDI R2, 0xFFFF\\n  CLR R0\\n"
    ...             "  ST R1, R2, R0\\n  HALT")
    >>> session.host.monitor(1).printf_values
    [7]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..host.serial_software import SerialSoftware
from ..sim import Simulator
from ..system.config import SystemConfig
from ..system.multinoc import MultiNoC
from .program import Program

Address = Tuple[int, int]


class MultiNoCPlatform:
    """Describes a MultiNoC instance before it is built."""

    def __init__(
        self,
        mesh: Tuple[int, int] = (2, 2),
        n_processors: int = 2,
        n_memories: int = 1,
        serial_at: Address = (0, 0),
        processors_at: Optional[Dict[int, Address]] = None,
        memories_at: Optional[List[Address]] = None,
        topology=None,
        **config_overrides,
    ):
        from ..noc.topology import parse_topology

        topo = parse_topology(topology if topology is not None else tuple(mesh))
        width, height = topo.width, topo.height
        if processors_at is None or memories_at is None:
            free = [node for node in topo.nodes() if node != tuple(serial_at)]
            needed = n_processors + n_memories
            if needed > len(free):
                raise ValueError(
                    f"{needed} IPs do not fit a {width}x{height} mesh "
                    f"(only {len(free)} nodes free)"
                    if topo.kind == "mesh"
                    else f"{needed} IPs do not fit {topo.spec} "
                    f"(only {len(free)} nodes free)"
                )
            processors_at = {
                pid: free[pid - 1] for pid in range(1, n_processors + 1)
            }
            memories_at = free[n_processors : n_processors + n_memories]
        self.config = SystemConfig(
            mesh=(width, height),
            topology=topo.spec if topology is not None else None,
            serial=serial_at,
            processors=processors_at,
            memories=memories_at,
            **config_overrides,
        )
        self.config.validate()

    @classmethod
    def standard(cls, **config_overrides) -> "MultiNoCPlatform":
        """The paper's prototype: 2x2 mesh, 2 processors, 1 memory."""
        platform = cls.__new__(cls)
        platform.config = SystemConfig(**config_overrides)
        platform.config.validate()
        return platform

    def build(self, telemetry=None) -> MultiNoC:
        """Instantiate the hardware model only."""
        return MultiNoC(self.config, telemetry=telemetry)

    def launch(
        self,
        baud_divisor: int = 4,
        telemetry=None,
        strict_lockstep: bool = False,
    ) -> "PlatformSession":
        """Build the system, a simulator and a connected host.

        Pass ``telemetry=True`` (or a configured
        :class:`~repro.telemetry.TelemetrySink`) to record structured
        events across the NoC, the R8 cores and the host link; the sink
        is available as ``session.telemetry`` afterwards.

        ``strict_lockstep=True`` disables the kernel's idle skipping
        (CLI ``--no-idle-skip``) — architecturally identical, slower.
        """
        if telemetry is True:
            from ..telemetry import TelemetrySink

            telemetry = TelemetrySink()
        system = self.build(telemetry=telemetry)
        sim = system.make_simulator(strict_lockstep=strict_lockstep)
        host = SerialSoftware(system, baud_divisor=baud_divisor).connect(sim)
        if telemetry is not None:
            host.attach_telemetry(telemetry)
        return PlatformSession(self, system, sim, host, telemetry=telemetry)


@dataclass
class PlatformSession:
    """A live MultiNoC: system model + simulator + host software."""

    platform: MultiNoCPlatform
    system: MultiNoC
    sim: Simulator
    host: SerialSoftware
    telemetry: Optional[object] = None
    health: Optional[object] = None
    live: Optional[object] = None
    alerts: Optional[object] = None
    hostperf: Optional[object] = None
    flight: Optional[object] = None

    def live_stream(self, **kwargs):
        """Attach a :class:`~repro.telemetry.live.LiveStream`.

        Keyword arguments are forwarded to the stream's constructor
        (``stride``, ``tracks``, ``max_links``, ...).  The stream is
        wired to the system, simulator and host, stored as
        ``session.live`` and returned; subscribe callbacks or pass it to
        :meth:`serve_telemetry` / :class:`~repro.telemetry.top.MeshTop`.
        """
        from ..telemetry.live import LiveStream

        stream = LiveStream(**kwargs)
        stream.attach(self.sim, self.system, host=self.host)
        self.live = stream
        return stream

    def serve_telemetry(self, port: int = 0, *, host: str = "127.0.0.1"):
        """Serve this session's live stream over localhost HTTP.

        Attaches a default :meth:`live_stream` first if none exists;
        returns the started :class:`~repro.telemetry.server.TelemetryServer`
        (its ``.address`` carries the bound port when ``port=0``).  An
        attached :meth:`alert_engine` is served at ``/alerts``.
        """
        from ..telemetry.server import TelemetryServer

        if self.live is None:
            self.live_stream()
        server = TelemetryServer(
            self.live, self.system.stats.registry, host=host, port=port
        )
        if self.alerts is not None:
            server.attach_alerts(self.alerts)
        return server.start()

    def alert_engine(self, rules, **kwargs):
        """Attach an alerting/SLO engine to this session's live stream.

        *rules* is a :class:`~repro.telemetry.alerts.RuleSet`, rule-file
        text, or a path to one; keyword arguments are forwarded to
        :class:`~repro.telemetry.alerts.AlertEngine` (``log``,
        ``notify``, ``sink``, ``registry``).  A default
        :meth:`live_stream` is attached first if none exists; the
        engine subscribes to its frames, is stored as
        ``session.alerts`` and returned.  Evaluation only *reads*
        frames — an alerted run stays bit-identical to an unalerted
        one.
        """
        from ..telemetry.alerts import AlertEngine, RuleSet, load_rules, parse_rules

        if isinstance(rules, str) and "\n" not in rules and len(rules) < 4096:
            import os

            if os.path.exists(rules):
                rules = load_rules(rules)
        if isinstance(rules, str):
            rules = parse_rules(rules)
        if not isinstance(rules, RuleSet):
            raise TypeError(
                "rules must be a RuleSet, rule-file text, or a path"
            )
        if self.live is None:
            self.live_stream()
        engine = AlertEngine(rules, **kwargs)
        engine.attach(self.live)
        self.alerts = engine
        return engine

    def monitor_health(self, **kwargs):
        """Attach a :class:`~repro.telemetry.health.HealthMonitor`.

        Keyword arguments are forwarded to the monitor's constructor
        (thresholds, ``check_interval``, ``invariants``, ...).  The
        monitor is wired to the system, simulator and host, stored as
        ``session.health`` and returned.
        """
        from ..telemetry.health import HealthMonitor

        monitor = HealthMonitor(**kwargs)
        self.system.attach_health(monitor, self.sim, host=self.host)
        self.health = monitor
        return monitor

    def profile_host(self, *, start: bool = True, **kwargs):
        """Attach a sampling host profiler (the mode-preserving one).

        Keyword arguments (``interval``, ``history``) are forwarded to
        :class:`~repro.telemetry.hostperf.HostPerfProfiler`.  The
        profiler is attached to the simulator, bound to the system's
        metrics registry (so ``/metrics`` carries host gauges), started
        on the calling thread unless ``start=False``, stored as
        ``session.hostperf`` and returned.  Sampling never changes the
        kernel's execution path — a profiled run stays bit-identical
        and keeps the quiescent fast path.
        """
        from ..telemetry.hostperf import HostPerfProfiler

        profiler = HostPerfProfiler(**kwargs)
        profiler.attach(self.sim)
        profiler.bind_metrics(self.system.stats.registry)
        if start:
            profiler.start()
        self.hostperf = profiler
        return profiler

    def flight_recorder(self, root, **kwargs):
        """Attach a crash flight recorder writing bundles under *root*.

        Keyword arguments are forwarded to
        :class:`~repro.telemetry.hostperf.FlightRecorder`
        (``keep_frames``).  If a live stream is attached, the recorder
        mirrors its frames as the black-box ring.  Stored as
        ``session.flight`` and returned; wrap the run in
        ``flight.armed(...)`` or call ``flight.record(exc, ...)`` from
        an exception handler.
        """
        from ..telemetry.hostperf import FlightRecorder

        recorder = FlightRecorder(root, **kwargs)
        if self.live is not None:
            recorder.watch(self.live)
        self.flight = recorder
        return recorder

    def record_run(
        self,
        *,
        registry=None,
        status: str = "ok",
        exit_code: int = 0,
        metrics: Optional[Dict[str, float]] = None,
        artifacts: Optional[Dict[str, str]] = None,
        timestamp: Optional[float] = None,
        meta: Optional[Dict[str, object]] = None,
        kind: str = "session",
        git_rev=None,
    ):
        """Append this session's outcome to the cross-run registry.

        Builds a ``multinoc-run/1`` record — configuration digest,
        machine fingerprint, cycle count, packet/latency summary, plus
        any caller *metrics* and *artifacts* — and appends it to
        *registry* (a :class:`~repro.telemetry.registry.RunRegistry`, a
        path, or ``None`` for the default ``.multinoc/runs`` /
        ``MULTINOC_RUNS_DIR`` root).  Returns the written record; the
        run's history then feeds ``multinoc runs list|trend``.

        ``git_rev=None`` skips the ``git rev-parse`` subprocess (hot
        paths, benchmarks); pass ``registry_module.AUTO`` or a string to
        record one.
        """
        from ..telemetry.registry import RunRegistry

        if not isinstance(registry, RunRegistry):
            registry = RunRegistry(registry)
        stats = self.system.stats
        summary = stats.latency_summary()
        base_metrics: Dict[str, float] = {
            "cycles": float(self.sim.cycle),
            "packets_injected": float(stats.packets_injected),
            "packets_delivered": float(stats.packets_delivered),
        }
        if summary["count"]:
            base_metrics.update(
                latency_mean=round(summary["mean"], 4),
                latency_p50=float(summary["p50"]),
                latency_p99=float(summary["p99"]),
                latency_max=float(summary["max"]),
            )
        if self.hostperf is not None:
            base_metrics.update(self.hostperf.run_metrics())
        base_metrics.update(metrics or {})
        return registry.record(
            kind=kind,
            status=status,
            exit_code=exit_code,
            timestamp=timestamp,
            metrics=base_metrics,
            config=self.system.config,
            artifacts=artifacts,
            meta={
                "mesh": list(self.system.config.mesh),
                "topology": self.system.topology.spec,
                "processors": len(self.system.config.processors),
                **(meta or {}),
            },
            git_rev=git_rev,
        )

    def analyze(self):
        """Post-mortem analysis of this session's telemetry.

        Flushes deferred telemetry (CPU PC samples) and runs
        :func:`~repro.telemetry.analysis.analyze_trace` over the sink;
        raises if the session was launched without telemetry.
        """
        if self.telemetry is None:
            raise RuntimeError(
                "session has no telemetry sink; launch(telemetry=True) first"
            )
        from ..telemetry.analysis import analyze_trace

        self.system.flush_telemetry()
        return analyze_trace(self.telemetry)

    def processor_address(self, pid: int) -> Address:
        return self.system.config.processors[pid]

    def memory_address(self, index: int = 0) -> Address:
        return self.system.config.memories[index]

    def run(
        self,
        pid: int,
        program: Union[str, Program],
        max_cycles: int = 5_000_000,
    ) -> Program:
        """Assemble (if needed), load, activate and run to HALT on *pid*."""
        if isinstance(program, str):
            program = Program.from_source(program, name=f"proc{pid}")
        self.host.run_program(
            self.processor_address(pid), pid, program.obj, max_cycles=max_cycles
        )
        return program

    def start(self, pid: int, program: Union[str, Program]) -> Program:
        """Load and activate without waiting for HALT (for parallel runs)."""
        if isinstance(program, str):
            program = Program.from_source(program, name=f"proc{pid}")
        if not self.host.synced:
            self.host.sync()
        addr = self.processor_address(pid)
        self.host.load_program(addr, program.obj)
        self.host.activate(addr)
        return program

    def wait_all_halted(self, max_cycles: int = 10_000_000) -> int:
        """Run until every processor halts; returns cycles consumed."""
        return self.sim.run_until(
            lambda: self.system.all_halted, max_cycles=max_cycles,
            label="all processors halted",
        )

    def read(self, pid_or_mem, address: int, count: int) -> List[int]:
        """Read words from a processor's (int pid) or memory's ("memN")
        storage through the host, like Figure 9's debug reads."""
        return self.host.read_memory(self._addr(pid_or_mem), address, count)

    def write(self, pid_or_mem, address: int, words) -> None:
        self.host.write_memory(self._addr(pid_or_mem), address, list(words))

    def _addr(self, pid_or_mem) -> Address:
        if isinstance(pid_or_mem, int):
            return self.processor_address(pid_or_mem)
        if isinstance(pid_or_mem, str) and pid_or_mem.startswith("mem"):
            return self.memory_address(int(pid_or_mem[3:] or "0"))
        return pid_or_mem  # assume an explicit (x, y)

"""Unified observability layer: events, metrics, exporters, profiling.

One :class:`TelemetrySink` instruments the whole platform — the packet
lifecycle across routers and network interfaces, R8 execution (bursts,
stalls, traps), host serial transactions — while the
:class:`MetricsRegistry` carries the numeric aggregates
(:class:`~repro.noc.stats.NetworkStats` is built on it).  Exporters turn
a sink into a Chrome-trace/Perfetto JSON, a JSONL event log or a
Prometheus text dump, and :class:`HostPerfProfiler` samples where the
simulator's wall-clock time goes.  :class:`HealthMonitor` is the active
layer on top: watchdogs (deadlock, starvation, CPU stall, host timeout)
and online invariant checks that detect, localise and explain
pathologies while the simulation runs.  :class:`LiveStream` frames are
the one strided view of a running system; alerts, ``multinoc top`` and
the health report's series all read them through one field table.

Each public name imports its submodule on first use, so the model, which
imports only :mod:`~repro.telemetry.metrics`, loads no other telemetry.

See ``docs/OBSERVABILITY.md`` for the event taxonomy and workflows.
"""

from .. import _lazy_exports

#: submodule -> the public names it defines
_EXPORTS = {
    ".alerts": (
        "ALERT_SCHEMA",
        "ALERTS_DOC_SCHEMA",
        "AlertEngine",
        "AlertRule",
        "Condition",
        "RuleError",
        "RuleSet",
        "SloObjective",
        "check_frames",
        "check_records",
        "frames_from_trace",
        "load_rules",
        "parse_condition",
        "parse_rules",
    ),
    ".analysis": (
        "CpuProfile",
        "HopBreakdown",
        "PacketTrace",
        "TraceAnalysis",
        "analyze_trace",
        "diff_traces",
    ),
    ".events": ("Event", "TelemetrySink"),
    ".export": (
        "TraceError",
        "chrome_trace",
        "load_jsonl",
        "write_chrome_trace",
        "write_jsonl",
        "write_prometheus",
    ),
    ".health": ("HealthMonitor", "HealthViolation"),
    ".hostperf": (
        "CRASH_SCHEMA",
        "HOSTPERF_SCHEMA",
        "FlightRecorder",
        "HostPerfProfiler",
        "read_rss_bytes",
    ),
    ".live": ("LIVE_SCHEMA", "LiveStream"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricError", "MetricsRegistry"),
    ".registry": (
        "RUN_SCHEMA",
        "RegistryError",
        "RunRegistry",
        "config_digest",
        "flatten_metrics",
        "git_revision",
        "machine_fingerprint",
    ),
    ".server": ("TelemetryServer",),
    ".top": ("MeshTop", "fetch_frame", "stream_frames"),
    ".trend": (
        "TREND_SCHEMA",
        "MetricDiff",
        "TrendEntry",
        "TrendReport",
        "compute_trend",
        "diff_metrics",
        "diff_records",
        "metric_arrow",
    ),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

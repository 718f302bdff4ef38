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

See ``docs/OBSERVABILITY.md`` for the event taxonomy and workflows.
"""

from .alerts import (
    ALERT_SCHEMA,
    ALERTS_DOC_SCHEMA,
    AlertEngine,
    AlertRule,
    Condition,
    RuleError,
    RuleSet,
    SloObjective,
    check_frames,
    check_records,
    frames_from_trace,
    load_rules,
    parse_condition,
    parse_rules,
)
from .analysis import (
    CpuProfile,
    HopBreakdown,
    PacketTrace,
    TraceAnalysis,
    analyze_trace,
    diff_traces,
)
from .events import Event, TelemetrySink
from .export import (
    chrome_trace,
    load_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .health import HealthMonitor, HealthViolation
from .hostperf import (
    CRASH_SCHEMA,
    HOSTPERF_SCHEMA,
    FlightRecorder,
    HostPerfProfiler,
    read_rss_bytes,
)
from .live import LIVE_SCHEMA, LiveStream
from .metrics import Counter, Gauge, Histogram, MetricError, MetricsRegistry
from .registry import (
    RUN_SCHEMA,
    RegistryError,
    RunRegistry,
    config_digest,
    flatten_metrics,
    git_revision,
    machine_fingerprint,
)
from .server import TelemetryServer
from .top import MeshTop, fetch_frame, stream_frames
from .trend import (
    TREND_SCHEMA,
    MetricDiff,
    TrendEntry,
    TrendReport,
    compute_trend,
    diff_metrics,
    diff_records,
    metric_arrow,
)

__all__ = [
    "ALERT_SCHEMA",
    "ALERTS_DOC_SCHEMA",
    "AlertEngine",
    "AlertRule",
    "Condition",
    "CRASH_SCHEMA",
    "Counter",
    "CpuProfile",
    "Event",
    "FlightRecorder",
    "Gauge",
    "HOSTPERF_SCHEMA",
    "HealthMonitor",
    "HealthViolation",
    "Histogram",
    "HopBreakdown",
    "HostPerfProfiler",
    "LIVE_SCHEMA",
    "LiveStream",
    "MeshTop",
    "MetricDiff",
    "MetricError",
    "MetricsRegistry",
    "PacketTrace",
    "RUN_SCHEMA",
    "RegistryError",
    "RuleError",
    "RuleSet",
    "RunRegistry",
    "SloObjective",
    "TREND_SCHEMA",
    "TelemetryServer",
    "TelemetrySink",
    "TraceAnalysis",
    "TrendEntry",
    "TrendReport",
    "analyze_trace",
    "check_frames",
    "check_records",
    "chrome_trace",
    "compute_trend",
    "config_digest",
    "diff_metrics",
    "diff_records",
    "diff_traces",
    "fetch_frame",
    "flatten_metrics",
    "frames_from_trace",
    "git_revision",
    "load_jsonl",
    "load_rules",
    "machine_fingerprint",
    "metric_arrow",
    "parse_condition",
    "parse_rules",
    "read_rss_bytes",
    "stream_frames",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]

"""Observation for the traced pass, from outside the program.

* :class:`SpanRecorder` wraps public calls (the host's transactions and
  ``Simulator.run_until``) and keeps one span per call in memory;
* :func:`attribution` turns an attached ``HostPerfProfiler`` into host
  ms per simulated kilocycle per layer, with sample shares and 95 %
  Wilson intervals;
* :func:`counters` derives the exact per-layer counters from a
  workload's simulated statistics and the profiler's skip counters.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from time import perf_counter

#: public host calls wrapped in the traced pass
HOST_CALLS = ("sync", "write_memory", "read_memory", "load_program", "activate")

#: hostperf kernel region -> ledger metric prefix
REGIONS = {
    "eval": "sim.eval",
    "commit": "sim.commit",
    "wake_heap": "sim.wake_heap",
    "watchers": "sim.watchers",
    "fast_forward": "sim.fast_forward",
    "run_until": "sim.run_until",
    "kernel": "sim.step_overhead",
}

#: hostperf subsystem -> ledger metric prefix
SUBSYSTEMS = {
    "Router": "noc.router",
    "NI": "noc.ni",
    "NoC": "noc.fabric",
    "ProcessorIP": "system.processor_ip",
    "Uart": "serial.uart",
    "Host": "host",
    "Memory": "memory",
    "System": "system",
    "Toolchain": "toolchain",
    "Telemetry": "telemetry",
    "Kernel": "sim.kernel",
}

#: a share whose interval is wider than this (either side) is unresolved
UNRESOLVED_HALF_WIDTH = 0.05
#: normal quantile of a two-sided 95 % interval
Z95 = 1.96


class SpanRecorder:
    """Spans around public calls: name, start, end, parent, rep id."""

    def __init__(self, sim, rep: str):
        self.sim = sim
        self.rep = rep
        self.spans = []
        self._open = []

    def wrap(self, obj, method: str, name: str) -> None:
        """Replace ``obj.method`` on the instance with a recording wrapper."""
        inner = getattr(obj, method)
        sim, spans, open_ = self.sim, self.spans, self._open

        def recorded(*args, **kwargs):
            span = {
                "name": name,
                "rep": self.rep,
                "parent": open_[-1] if open_ else None,
                "start": perf_counter(),
                "cycle_start": sim.cycle,
            }
            if method == "write_memory":
                span["words"] = len(args[2] if len(args) > 2 else kwargs["words"])
            open_.append(len(spans))
            spans.append(span)
            try:
                return inner(*args, **kwargs)
            finally:
                open_.pop()
                span["end"] = perf_counter()
                span["cycle_end"] = sim.cycle

        setattr(obj, method, recorded)

    def install(self, workload) -> None:
        host = getattr(getattr(workload, "session", None), "host", None)
        if host is not None:
            for call in HOST_CALLS:
                self.wrap(host, call, f"host.{call}")
        self.wrap(workload.sim, "run_until", "sim.run_until")

    def finished(self):
        """Closed spans, each with its ``self_s`` (duration minus the
        part its direct children cover)."""
        child_s = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        out = []
        for i, span in enumerate(self.spans):
            duration = span["end"] - span["start"]
            out.append(dict(span, self_s=duration - child_s[i]))
        return out


def span_metrics(spans, scale: float) -> dict:
    """Per-call ``ms_p50``/``self_ms_p50``/``calls``/``cyc_per_call``;
    host times are multiplied by *scale* (see ``calibration``)."""
    ms = 1e3 * scale
    metrics = {}
    for name in [f"host.{c}" for c in HOST_CALLS] + ["sim.run_until"]:
        mine = [s for s in spans if s["name"] == name]
        n = len(mine)
        metrics[f"{name}.calls"] = n
        metrics[f"{name}.ms_p50"] = (
            statistics.median(ms * (s["end"] - s["start"]) for s in mine) if n else 0.0
        )
        metrics[f"{name}.self_ms_p50"] = (
            statistics.median(ms * s["self_s"] for s in mine) if n else 0.0
        )
        metrics[f"{name}.cyc_per_call"] = (
            sum(s["cycle_end"] - s["cycle_start"] for s in mine) / n if n else 0.0
        )
    writes = [s for s in spans if s["name"] == "host.write_memory"]
    words = sum(s["words"] for s in writes)
    metrics["host.write_memory.ms_per_word"] = (
        ms * sum(s["end"] - s["start"] for s in writes) / words if words else 0.0
    )
    return metrics


def wilson(k: int, n: int):
    """95 % Wilson score interval of a binomial share k/n."""
    if n == 0:
        return 0.0, 1.0
    p, z = k / n, Z95
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def attribution(profiler, scale: float) -> dict:
    """Per-layer host time from a stopped ``HostPerfProfiler``.

    ``ms_per_kcyc`` uses the profiler's attributed seconds times *scale*;
    ``share``, ``samples`` and the Wilson interval use sample counts,
    which the profiler keeps in ``recent`` when its history holds every
    sample.
    """
    kcyc = profiler.sim_cycles / 1000.0
    n = len(profiler.recent)
    by_region = Counter(r for _, _, r, _ in profiler.recent)
    by_subsystem = Counter(s for _, _, _, s in profiler.recent)
    rows = {}
    for table, seconds, counts in (
        (REGIONS, profiler.by_region(), by_region),
        (SUBSYSTEMS, profiler.by_subsystem(), by_subsystem),
    ):
        for key, prefix in table.items():
            k = counts.get(key, 0)
            low, high = wilson(k, n)
            share = k / n if n else 0.0
            rows[prefix] = {
                "ms_per_kcyc": 1e3 * scale * seconds.get(key, 0.0) / kcyc if kcyc else 0.0,
                "share": share,
                "samples": k,
                "ci95": [low, high],
                "unresolved": max(share - low, high - share) > UNRESOLVED_HALF_WIDTH,
            }
    return rows


def counters(stats: dict, ff_spans: int, ff_cycles: int) -> dict:
    """Exact per-layer counters from :meth:`Workload.sim_stats`."""
    opened, blocked = stats["connections_opened"], stats["blocked_routings"]
    instructions = sum(stats["instructions"])
    active = sum(stats["cycles_active"])
    cycles = stats["cycles"]
    return {
        "noc.flit_hops": stats["flit_hops"],
        "noc.stall_cycles": stats["stall_cycles"],
        "noc.blocked_routings": blocked,
        "noc.route_success_ratio": opened / (opened + blocked) if opened + blocked else 1.0,
        "r8.instructions": instructions,
        "r8.cpi": active / instructions if instructions else 0.0,
        "r8.stall_frac": sum(stats["cycles_stalled"]) / active if active else 0.0,
        "sim.ff_cycle_frac": ff_cycles / cycles if cycles else 0.0,
        "sim.ff_spans": ff_spans,
    }

"""Post-mortem analyzer throughput: reconstructing every packet's
critical path from a ~100k-event trace must stay interactive.

A 4x4 Hermes mesh runs repeated all-to-all bursts with telemetry
attached, producing a trace of roughly 100k raw events.  The benchmark
measures ``analyze_trace`` alone — event bucketing, positional chain
reconstruction, latency decomposition and congestion attribution — and
guards a throughput floor so the offline tooling keeps up with traces
from long simulations.
"""

import time

from conftest import report
from repro.noc import HermesNetwork
from repro.telemetry import TelemetrySink, analyze_trace

SIDE = 4
BURSTS = 28  # ~102k events on a 4x4 mesh
MIN_EVENTS = 90_000
MIN_EVENTS_PER_SEC = 20_000


def _record_workload():
    sink = TelemetrySink()
    net = HermesNetwork(SIDE, SIDE, telemetry=sink)
    sim = net.make_simulator()
    sim.reset()
    for burst in range(BURSTS):
        for sx in range(SIDE):
            for sy in range(SIDE):
                for tx in range(SIDE):
                    for ty in range(SIDE):
                        if (sx, sy) != (tx, ty):
                            net.send((sx, sy), (tx, ty), [burst, sx, ty])
    net.run_to_drain(sim, max_cycles=5_000_000)
    return sink, net


def _timed_analysis(sink):
    start = time.perf_counter()
    analysis = analyze_trace(sink)
    return analysis, time.perf_counter() - start


def test_analyzer_throughput(benchmark):
    sink, net = _record_workload()
    events = len(sink.events)
    assert events >= MIN_EVENTS, f"workload too small: {events} events"

    # timed here rather than read from benchmark.stats, which is None
    # under --benchmark-disable: the floor holds in both modes
    analysis, seconds = benchmark(_timed_analysis, sink)

    # correctness first: every injected packet reconstructed, cycle-exact
    assert len(analysis.packets) == net.stats.packets_injected
    assert analysis.unresolved_hops == 0
    assert all(
        sum(p.decomposition().values()) == p.latency
        for p in analysis.delivered()
    )

    per_sec = events / seconds
    report(
        benchmark,
        "Post-mortem analyzer throughput (~100k-event trace)",
        [
            ("trace events", "~100k", events),
            ("packets reconstructed", len(analysis.packets),
             len(analysis.packets)),
            ("events/second", f">{MIN_EVENTS_PER_SEC}", round(per_sec)),
        ],
    )
    assert per_sec >= MIN_EVENTS_PER_SEC

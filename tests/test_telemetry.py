"""Tests for the unified telemetry layer: events, metrics, exporters,
and its integration with the full platform."""

import json

import pytest

from repro import MultiNoCPlatform
from repro.noc import HermesNetwork
from repro.telemetry import (
    Event,
    MetricError,
    MetricsRegistry,
    TelemetrySink,
    chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)

HELLO = """
        CLR  R0
        LDI  R1, 42
        LDI  R2, 0xFFFF
        ST   R1, R2, R0
        HALT
"""


class TestSink:
    def test_instant_and_complete(self):
        sink = TelemetrySink()
        sink.instant("t", "ping", 5, detail=1)
        sink.complete("t", "work", 10, 7)
        assert len(sink) == 2
        ping, work = sink.events
        assert (ping.ph, ping.ts, ping.args) == ("i", 5, {"detail": 1})
        assert (work.ph, work.ts, work.dur) == ("X", 10, 7)

    def test_ring_buffer_drops_oldest(self):
        sink = TelemetrySink(max_events=3)
        for i in range(10):
            sink.instant("t", f"e{i}", i)
        assert len(sink) == 3
        assert sink.dropped_events == 7
        assert [e.name for e in sink.events] == ["e7", "e8", "e9"]

    def test_track_registry_assigns_tids_per_process(self):
        sink = TelemetrySink()
        sink.track("r0", process="noc")
        sink.track("r1", process="noc")
        sink.track("cpu0", process="cpu")
        sink.track("r0", process="noc")  # idempotent
        assert sink.tracks["r0"] == ("noc", 1)
        assert sink.tracks["r1"] == ("noc", 2)
        assert sink.tracks["cpu0"] == ("cpu", 1)

    def test_queries(self):
        sink = TelemetrySink()
        sink.instant("a", "x", 1)
        sink.instant("b", "x", 2)
        sink.instant("a", "y", 3)
        assert len(sink.events_on("a")) == 2
        assert len(sink.events_named("x")) == 2


class TestMetrics:
    def test_counter_total_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("flits", "help text")
        c.inc()
        c.inc(2, label=("a", 1))
        c.samples[("a", 1)] += 3  # hot-path alias style
        assert c.value == 6
        assert c.samples[("a", 1)] == 5

    def test_gauge_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(4)
        assert g.read() == 4
        g.set_function(lambda: 42)
        assert g.read() == 42

    def test_registration_idempotent_and_kind_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(1, 101):  # 1..100
            h.record(v)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        assert h.mean == pytest.approx(50.5)
        s = h.summary()
        assert s["count"] == 100 and s["min"] == 1 and s["max"] == 100

    def test_histogram_edge_cases(self):
        h = MetricsRegistry().histogram("empty")
        # an empty distribution has no percentiles: loud error, not 0.0
        with pytest.raises(MetricError, match="empty"):
            h.percentile(50)
        assert h.summary() == {"count": 0}
        h.record(7)
        assert h.percentile(99) == 7
        with pytest.raises(MetricError):
            h.percentile(101)

    def test_empty_histogram_exports_without_percentiles(self):
        reg = MetricsRegistry()
        reg.histogram("h", "never recorded")
        text = reg.prometheus_text()
        assert "h_count 0" in text
        assert "quantile" not in text
        assert reg.snapshot()["h"]["count"] == 0

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter").inc(3, label=((0, 1), 2))
        reg.gauge("g").set(1.5)
        h = reg.histogram("h")
        h.record(10)
        text = reg.prometheus_text()
        assert "# TYPE c_total counter" in text
        assert 'c_total{label="0/1/2"} 3' in text
        assert "# HELP c_total a counter" in text
        assert "g 1.5" in text
        assert "h_count 1" in text
        assert 'h{quantile="0.50"} 10' in text

    def test_prometheus_counter_total_suffix_convention(self):
        """Counters registered without ``_total`` gain it on export."""
        reg = MetricsRegistry()
        reg.counter("events", "raw event count").inc(2)
        reg.counter("events").inc(1, label="a")
        text = reg.prometheus_text()
        assert "# HELP events_total raw event count" in text
        assert "# TYPE events_total counter" in text
        assert "events_total 3" in text  # unlabelled line carries the total
        assert 'events_total{label="a"} 1' in text
        # only the suffixed name is exposed
        assert "\nevents " not in text and not text.startswith("events ")

    def test_prometheus_help_text_is_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "line one\nline two \\ done").inc(1)
        text = reg.prometheus_text()
        # real newline/backslash become the two-character escapes
        assert "# HELP c_total line one\\nline two \\\\ done" in text
        assert "\n# TYPE" in text  # HELP still fits on a single line

    def test_prometheus_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(4, label='quo"te\nnew\\slash')
        text = reg.prometheus_text()
        assert 'c_total{label="quo\\"te\\nnew\\\\slash"} 4' in text
        # every sample line must stay a single physical line
        for line in text.splitlines():
            assert "\r" not in line

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1, label=(3, 4))
        reg.histogram("h").record(2)
        json.dumps(reg.snapshot())


class TestExporters:
    def _sink(self):
        sink = TelemetrySink()
        sink.track("router00", process="noc")
        sink.complete("router00", "hop", 10, 4, port="EAST")
        sink.instant("router00", "route", 10)
        return sink

    def test_chrome_trace_schema(self):
        doc = chrome_trace(self._sink())
        assert "traceEvents" in doc
        for event in doc["traceEvents"]:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {m["name"] for m in metas}
        json.dumps(doc)  # must be valid JSON

    def test_chrome_trace_clock_scaling(self):
        doc = chrome_trace(self._sink(), clock_hz=1_000_000)  # 1 cycle = 1 us
        hop = next(e for e in doc["traceEvents"] if e["name"] == "hop")
        assert hop["ts"] == pytest.approx(10.0)
        assert hop["dur"] == pytest.approx(4.0)

    def test_write_files(self, tmp_path):
        sink = self._sink()
        trace = write_chrome_trace(sink, tmp_path / "t.json")
        lines = write_jsonl(sink, tmp_path / "t.jsonl")
        prom = write_prometheus(sink, tmp_path / "m.prom")
        json.loads(trace.read_text())
        records = [json.loads(l) for l in lines.read_text().splitlines()]
        # first line is the track-registry meta record, then the events
        assert len(records) == 3
        assert records[0]["meta"] == "tracks"
        assert records[1]["name"] == "hop"
        assert prom.read_text().endswith("\n")

    def test_jsonl_round_trip_restores_sink(self, tmp_path):
        from repro.telemetry import load_jsonl

        sink = self._sink()
        path = write_jsonl(sink, tmp_path / "t.jsonl")
        loaded = load_jsonl(path)
        assert loaded.tracks == sink.tracks
        assert [e.as_dict() for e in loaded.events] == [
            e.as_dict() for e in sink.events
        ]

    def test_as_csv_round_trips_hostile_args(self):
        import csv
        import io

        sink = TelemetrySink()
        hostile = 'comma, "quote"\nnewline'
        sink.complete("t1", "evil", 5, 2, text=hostile, n=1)
        reader = csv.reader(io.StringIO(sink.as_csv()))
        rows = list(reader)
        assert rows[0] == ["ph", "name", "track", "ts", "dur", "args"]
        ph, name, track, ts, dur, args = rows[1]
        assert (ph, name, track, ts, dur) == ("X", "evil", "t1", "5", "2")
        assert json.loads(args) == {"text": hostile, "n": 1}

    def test_chrome_trace_flow_events_link_inject_to_packet(self):
        sink = TelemetrySink()
        sink.track("ni00", process="noc")
        sink.track("ni11", process="noc")
        sink.complete(
            "ni00", "inject", 10, 6, target="1,1", src="0,0",
            flow="0,0>1,1", seq=0, flits=4,
        )
        sink.complete("ni11", "packet", 10, 30, flits=4, at="1,1")
        doc = chrome_trace(sink)
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["ts"] == 16  # injection completion
        assert finishes[0]["ts"] == 40  # delivery
        assert finishes[0]["bp"] == "e"
        # s sits on the injecting NI track, f on the delivering one
        assert (starts[0]["pid"], starts[0]["tid"]) != (
            finishes[0]["pid"],
            finishes[0]["tid"],
        )


class TestPlatformIntegration:
    @pytest.fixture(scope="class")
    def traced_session(self):
        session = MultiNoCPlatform.standard().launch(telemetry=True)
        session.host.sync()
        session.run(1, HELLO)
        return session

    def test_router_cpu_host_tracks_have_events(self, traced_session):
        sink = traced_session.telemetry
        tracks_with_events = {e.track for e in sink.events}
        assert any(t.startswith("router") for t in tracks_with_events)
        assert "proc1.r8" in tracks_with_events
        assert "host" in tracks_with_events
        assert "serial" in tracks_with_events

    def test_packet_lifecycle_recorded(self, traced_session):
        sink = traced_session.telemetry
        # write/activate/printf all crossed the NoC: hops + packet spans
        assert sink.events_named("route")
        assert any(e.name.startswith("hop>") for e in sink.events)
        assert sink.events_named("packet")
        assert sink.events_named("inject")

    def test_cpu_and_trap_events(self, traced_session):
        sink = traced_session.telemetry
        assert sink.events_named("activate_packet")
        bursts = sink.events_named("exec")
        assert bursts and bursts[0].args["retired"] >= 5
        printfs = sink.events_named("printf")
        assert any(e.args.get("value") == 42 for e in printfs)

    def test_host_transaction_spans(self, traced_session):
        sink = traced_session.telemetry
        names = {e.name for e in sink.events_on("host")}
        assert {"sync", "write_memory", "activate"} <= names

    def test_metrics_shared_with_network_stats(self, traced_session):
        reg = traced_session.system.stats.registry
        assert reg is traced_session.telemetry.metrics
        assert reg.counter("noc_packets_delivered_total").value >= 3
        assert reg.get("cpu_1_instructions_retired").read() >= 5

    def test_chrome_export_of_real_run(self, traced_session, tmp_path):
        path = write_chrome_trace(
            traced_session.telemetry,
            tmp_path / "run.json",
            clock_hz=traced_session.system.config.clock_hz,
        )
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) > 20


class TestHermesNetworkTelemetry:
    def test_network_level_wiring(self):
        sink = TelemetrySink()
        net = HermesNetwork(2, 2, telemetry=sink)
        assert net.stats.registry is sink.metrics
        sim = net.make_simulator()
        net.send((0, 0), (1, 1), [1, 2, 3])
        net.run_to_drain(sim)
        assert sink.events_named("route")
        assert sink.events_named("packet")

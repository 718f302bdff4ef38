"""Tests for the live observation plane: stream, HTTP server, dashboard.

Covers the ``multinoc-live/1`` frame schema, the stride cadence across
the kernel's idle fast-forward (frames must land on the same cycles in
both kernel modes), track filtering and link top-N bounding, the HTTP
endpoints (Prometheus scrape, latest frame, SSE/JSONL stream), the
terminal dashboard's ASCII and colour renderings, and — most
importantly — the equivalence guard: an observed run is bit-identical
to an unobserved one in both kernel modes.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import MultiNoCPlatform
from repro.sim import stride_points
from repro.telemetry import (
    LIVE_SCHEMA,
    LiveStream,
    MeshTop,
    TelemetryServer,
    TelemetrySink,
)
from repro.telemetry.top import fetch_frame, stream_frames, watch

PRINTF_LOOP = """
        CLR  R0
        LDI  R2, 0xFFFF
        LDL  R1, 5
        LDL  R3, 1
loop:   ST   R1, R2, R0
        SUB  R1, R1, R3
        JMPZD done
        JMP  loop
done:   HALT
"""


def launch_observed(stride=256, strict=False, **live_kwargs):
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    live = session.live_stream(stride=stride, **live_kwargs)
    frames = []
    live.subscribe(frames.append)
    return session, live, frames


class TestStridePoints:
    def test_interior_multiples_only(self):
        assert list(stride_points(0, 1000, 256)) == [256, 512, 768]
        assert list(stride_points(256, 768, 256)) == [512]
        assert list(stride_points(100, 130, 50)) == []

    def test_start_on_multiple_is_excluded(self):
        # the landing cycle `end` gets a normal watcher call instead
        assert list(stride_points(512, 1024, 256)) == [768]


class TestLiveStream:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="stride"):
            LiveStream(stride=0)
        with pytest.raises(ValueError, match="max_links"):
            LiveStream(max_links=0)

    def test_frames_fire_on_stride(self):
        session, live, frames = launch_observed(stride=256)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        assert len(frames) > 3
        for frame in frames:
            assert frame["schema"] == LIVE_SCHEMA
            assert frame["cycle"] % 256 == 0
        cycles = [f["cycle"] for f in frames]
        assert cycles == sorted(cycles)
        assert [f["seq"] for f in frames] == list(range(len(frames)))

    def test_frame_carries_every_track(self):
        session, live, frames = launch_observed(stride=256)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        frame = live.force()
        assert frame["mesh"] == [2, 2]
        assert set(frame["routers"]) == {
            "router00", "router10", "router01", "router11"
        }
        for router in frame["routers"].values():
            assert {"occupancy", "watermark", "rate"} <= set(router)
        assert frame["cpus"]["proc1"]["state"] == "halted"
        assert frame["cpus"]["proc1"]["retired"] > 0
        assert frame["packets"]["delivered"] == frame["packets"]["injected"]
        assert frame["health"] == {"attached": False}
        assert frame["checkpoints"] == []
        assert frame["sim_rate_hz"] >= 0

    def test_stride_cadence_survives_fast_forward(self):
        """The quiescent kernel skips idle spans, but frames must land
        on exactly the same cycles as in strict lock-step."""

        def frame_cycles(strict):
            session, live, frames = launch_observed(stride=512, strict=strict)
            session.host.sync()
            session.run(1, PRINTF_LOOP)
            return [f["cycle"] for f in frames], session.sim.cycle

        quiescent, q_end = frame_cycles(strict=False)
        lockstep, l_end = frame_cycles(strict=True)
        assert q_end == l_end
        assert quiescent == lockstep
        assert quiescent == [c for c in range(512, q_end + 1, 512)]

    def test_max_links_bounds_frame_size(self):
        session, live, frames = launch_observed(stride=64, max_links=1)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        busy = [
            f for f in frames if f["links_elided"] or len(f["links"]) == 1
        ]
        assert busy, "serial traffic must light up more than one link"
        for frame in frames:
            assert len(frame["links"]) <= 1
            for util in frame["links"].values():
                assert 0 <= util <= 1

    def test_detach_stops_frames(self):
        session, live, frames = launch_observed(stride=256)
        session.host.sync()
        live.detach()
        assert session.sim.live is None
        session.run(1, PRINTF_LOOP)
        assert frames == []

    def test_health_track_reports_monitor(self):
        session, live, frames = launch_observed(stride=256)
        session.monitor_health(check_interval=64, invariants=True)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        frame = live.force()
        assert frame["health"]["attached"] is True
        assert frame["health"]["checks_run"] > 0
        assert frame["health"]["violations"] == 0

    def test_checkpoint_marks_from_debugger_ring(self):
        from repro.debug import SystemDebugger

        session = MultiNoCPlatform.standard().launch(telemetry=TelemetrySink())
        debugger = SystemDebugger(session, checkpoint_interval=500)
        live = session.live_stream(stride=256)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        frame = live.force()
        assert frame["checkpoints"], "ring marks must surface in frames"
        assert frame["checkpoints"] == [
            e.cycle for e in debugger.ring.entries
        ]
        debugger.detach()
        assert session.sim.checkpoint_ring is None


class TestEquivalence:
    @pytest.mark.parametrize("strict", [False, True])
    def test_observed_run_is_bit_identical(self, strict, tmp_path):
        """The full observation stack (stream + dashboard + HTTP
        server) must not perturb the simulation in either kernel mode:
        same cycles, same printf stream, same telemetry event count,
        same memories, same serial-line waveform."""
        from repro.sim import VcdWriter

        def run(observed):
            session = MultiNoCPlatform.standard().launch(
                telemetry=True, strict_lockstep=strict
            )
            vcd = VcdWriter([session.system.rxd, session.system.txd])
            session.sim.add_watcher(vcd.sample)
            server = None
            if observed:
                live = session.live_stream(stride=128)
                MeshTop(color=False, stream=io.StringIO()).attach(live)
                server = session.serve_telemetry()
            session.host.sync()
            session.run(1, PRINTF_LOOP)
            session.system.flush_telemetry()
            path = tmp_path / f"{observed}-{strict}.vcd"
            vcd.write(path)
            if server is not None:
                server.close()
            return (
                session.sim.cycle,
                session.host.monitor(1).printf_values,
                len(session.telemetry),
                session.system.stats.packets_injected,
                session.system.stats.latencies,
                session.read(1, 0, 16),
                path.read_text(),
            )

        base = run(observed=False)
        observed = run(observed=True)
        # VCD texts differ only in the per-file creation path comment
        assert base[:-1] == observed[:-1]
        strip = lambda text: [
            l for l in text.splitlines() if not l.startswith("$comment")
        ]
        assert strip(base[-1]) == strip(observed[-1])


class TestTelemetryServer:
    def serve(self):
        session, live, frames = launch_observed(stride=256)
        server = session.serve_telemetry()
        return session, live, server

    def test_endpoints(self):
        session, live, server = self.serve()
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        live.force()

        with urllib.request.urlopen(server.address + "/metrics") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            metrics = resp.read().decode()
        assert "noc_flits_sent_total" in metrics
        assert "noc_packets_delivered_total" in metrics

        frame = fetch_frame(server.address)
        assert frame["schema"] == LIVE_SCHEMA
        assert frame["cycle"] == session.sim.cycle

        streamed = next(stream_frames(server.address, limit=1))
        assert streamed["cycle"] == frame["cycle"]

        with urllib.request.urlopen(
            server.address + "/frames?limit=1"
        ) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            body = resp.read()
        assert body.startswith(b"data: ")
        assert json.loads(body[len(b"data: "):])["schema"] == LIVE_SCHEMA

        with urllib.request.urlopen(server.address + "/") as resp:
            assert b"/metrics" in resp.read()
        server.close()

    def test_frame_is_404_before_first_frame(self):
        session, live, server = self.serve()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch_frame(server.address)
        assert excinfo.value.code == 404
        server.close()

    def test_bad_requests(self):
        session, live, server = self.serve()
        for path, code in (
            ("/nope", 404),
            ("/frames?format=xml", 400),
            ("/frames?limit=banana", 400),
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.address + path)
            assert excinfo.value.code == code
        server.close()

    def test_sse_delivers_latest_frame_on_connect(self):
        """A scrape that lands after the run still sees the last frame."""
        session, live, server = self.serve()
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        final = live.force()
        streamed = next(stream_frames(server.address, limit=1))
        assert streamed["seq"] == final["seq"]
        server.close()


class TestMeshTop:
    def final_frame(self):
        session, live, frames = launch_observed(stride=256)
        session.monitor_health(check_interval=64)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        return live.force()

    def test_ascii_render_sections(self):
        frame = self.final_frame()
        text = MeshTop(color=False).render(frame)
        assert "\x1b" not in text, "no ANSI codes in plain mode"
        assert "MultiNoC live" in text
        assert "mesh 2x2" in text
        assert "fifo occupancy" in text
        # one row per y in each of the two grids (util, occupancy)
        assert text.count("y1 [") == 2 and text.count("y0 [") == 2
        assert "proc1" in text and "HALTED" in text
        assert "health: OK" in text

    def test_colour_render_uses_ansi(self):
        frame = self.final_frame()
        text = MeshTop(color=True).render(frame)
        assert "\x1b[" in text
        assert "\x1b[32m" in text  # healthy status is green

    def test_display_and_attach(self):
        session, live, frames = launch_observed(stride=256)
        out = io.StringIO()
        top = MeshTop(color=False, stream=out)
        top.attach(live)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        text = out.getvalue()
        assert text.count("MultiNoC live") == len(frames)
        assert "\x1b" not in text, "plain mode never emits screen control"
        top.detach()
        before = out.getvalue()
        live.force()
        assert out.getvalue() == before

    def test_render_handles_minimal_frame(self):
        # remote frames may carry only a subset of tracks
        top = MeshTop(color=False)
        text = top.render(
            {"schema": LIVE_SCHEMA, "seq": 0, "cycle": 0, "window": 1}
        )
        assert "MultiNoC live" in text
        assert "no monitor attached" in text


class TestServerHardening:
    def serve(self):
        session = MultiNoCPlatform.standard().launch()
        live = session.live_stream(stride=256)
        server = session.serve_telemetry()
        return session, live, server

    def test_healthz_reports_server_state(self):
        session, live, server = self.serve()
        with urllib.request.urlopen(server.address + "/healthz") as resp:
            assert resp.status == 200
            doc = json.loads(resp.read())
        assert doc["status"] == "ok"
        assert doc["frames_seen"] == 0
        assert doc["uptime_seconds"] >= 0
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        with urllib.request.urlopen(server.address + "/healthz") as resp:
            doc = json.loads(resp.read())
        assert doc["frames_seen"] > 0
        server.close()

    def test_server_header_carries_version(self):
        from repro import __version__

        session, live, server = self.serve()
        with urllib.request.urlopen(server.address + "/healthz") as resp:
            assert resp.headers["Server"] == f"multinoc/{__version__}"
        server.close()

    def test_404_has_json_error_body(self):
        session, live, server = self.serve()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.address + "/bogus")
        assert excinfo.value.code == 404
        assert excinfo.value.headers["Content-Type"] == "application/json"
        body = json.loads(excinfo.value.read())
        assert body == {
            "error": "unknown endpoint",
            "path": "/bogus",
            "status": 404,
        }
        server.close()

    def test_runs_is_an_unknown_endpoint(self):
        session, live, server = self.serve()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.address + "/runs")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read()) == {
            "error": "unknown endpoint",
            "path": "/runs",
            "status": 404,
        }
        server.close()

    def test_frame_is_the_stream_frame_verbatim(self):
        session, live, server = self.serve()
        received = []
        live.subscribe(received.append)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        live.force()
        served = fetch_frame(server.address)
        assert "session" not in served
        assert served == json.loads(json.dumps(received[-1]))
        server.close()

    def test_close_never_started_server_returns(self):
        session = MultiNoCPlatform.standard().launch()
        server = TelemetryServer(session.live_stream(stride=256))
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=3)
        assert not closer.is_alive()

    def test_frame_404_is_json_too(self):
        session, live, server = self.serve()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.address + "/frame")
        assert "error" in json.loads(excinfo.value.read())
        server.close()

    def test_fetch_frame_retries_until_first_frame(self):
        """An attach that races the warm-up must not error: the server
        is up, the first frame just hasn't folded yet."""
        session, live, server = self.serve()
        timer = threading.Timer(0.15, live.force)
        timer.start()
        try:
            frame = fetch_frame(server.address, retries=8, backoff=0.05)
            assert frame["schema"] == LIVE_SCHEMA
        finally:
            timer.cancel()
            server.close()

    def test_fetch_frame_gives_up_after_retries(self):
        session, live, server = self.serve()
        with pytest.raises(urllib.error.HTTPError):
            fetch_frame(server.address, retries=1, backoff=0.01)
        server.close()

    def _free_port(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_fetch_frame_retries_connection_refused(self):
        """An attach that races server *startup* must not error either:
        nothing is listening yet, the dashboard was launched first."""
        port = self._free_port()
        session, live, frames = launch_observed(stride=256)
        holder = {}

        def start_late():
            holder["server"] = TelemetryServer(live, port=port).start()
            live.force()

        timer = threading.Timer(0.15, start_late)
        timer.start()
        try:
            frame = fetch_frame(
                f"http://127.0.0.1:{port}", retries=8, backoff=0.05
            )
            assert frame["schema"] == LIVE_SCHEMA
        finally:
            timer.cancel()
            if "server" in holder:
                holder["server"].close()

    def test_stream_frames_retries_connection_refused(self):
        port = self._free_port()
        session, live, frames = launch_observed(stride=256)
        holder = {}

        def start_late():
            holder["server"] = TelemetryServer(live, port=port).start()
            live.force()

        timer = threading.Timer(0.15, start_late)
        timer.start()
        try:
            streamed = next(
                stream_frames(
                    f"http://127.0.0.1:{port}",
                    limit=1,
                    retries=8,
                    backoff=0.05,
                )
            )
            assert streamed["schema"] == LIVE_SCHEMA
        finally:
            timer.cancel()
            if "server" in holder:
                holder["server"].close()

    def test_connection_refused_without_retries_raises(self):
        port = self._free_port()
        with pytest.raises((urllib.error.URLError, OSError)):
            fetch_frame(f"http://127.0.0.1:{port}")

    def test_root_lists_endpoints_as_json(self):
        session, live, server = self.serve()
        with urllib.request.urlopen(server.address + "/") as resp:
            assert resp.headers["Content-Type"] == "application/json"
            doc = json.loads(resp.read())
        assert doc["server"].startswith("multinoc/")
        assert set(doc["endpoints"]) == {
            "/metrics", "/frame", "/frames", "/alerts", "/healthz"
        }
        server.close()

    def test_unsupported_method_error_is_json(self):
        """stdlib-generated errors (501 for POST) are JSON, not HTML."""
        session, live, server = self.serve()
        request = urllib.request.Request(
            server.address + "/frame", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 501
        assert excinfo.value.headers["Content-Type"] == "application/json"
        body = json.loads(excinfo.value.read())
        assert body["status"] == 501
        server.close()

    def test_watch_once_survives_late_first_frame(self):
        session, live, server = self.serve()
        out = io.StringIO()
        timer = threading.Timer(0.15, live.force)
        timer.start()
        try:
            code = watch(
                server.address,
                once=True,
                top=MeshTop(color=False, stream=out),
                retries=8,
                backoff=0.05,
            )
        finally:
            timer.cancel()
            server.close()
        assert code == 0
        assert "MultiNoC live" in out.getvalue()

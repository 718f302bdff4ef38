"""Tests for the host performance observatory (`repro.telemetry.hostperf`).

Covers the kernel region-marker parsing and subsystem classification,
the sampling profiler's snapshot/report/folded outputs and its ≥90%
wall-clock attribution contract, memory telemetry (RSS, GC pauses),
metrics-registry and live-frame surfacing, run-registry metrics, the
crash flight recorder's ``multinoc-crash/1`` bundles, the profiling
flags of ``multinoc system``.  That a sampled run is bit-identical to
an unsampled one is checked by the ``hostperf`` observer of the
equivalence oracle in ``tests/test_equivalence.py``, pinned here on the
printf loop.
"""

import gc
import io
import json
import time

import pytest

from repro.core import MultiNoCPlatform
from repro.sim import SimulationTimeout
from repro.telemetry import (
    CRASH_SCHEMA,
    HOSTPERF_SCHEMA,
    FlightRecorder,
    HostPerfProfiler,
    MeshTop,
    read_rss_bytes,
)
from repro.telemetry.hostperf import (
    _kernel_region_table,
    _region_for_kernel_frame,
    _subsystem_for_filename,
)

from .test_equivalence import PRINTF_BOARD, Draw, assert_matches_lockstep

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


class TestClassification:
    def test_a_torn_frame_chain_ends_the_walk(self):
        """The sampled thread runs on while its frame chain is walked; a
        link read mid-update that is not a frame (a code object was seen)
        ends the walk instead of killing the sampler thread."""
        code = TestClassification.test_a_torn_frame_chain_ends_the_walk
        torn = HostPerfProfiler()._classify(code.__code__)
        assert torn == ("host", "other", "")

    def test_kernel_markers_cover_both_loops(self):
        table = _kernel_region_table()
        assert list(table["_advance"][1]) == [
            "run_until", "wake_heap", "eval", "commit", "kernel", "watchers"
        ]
        assert list(table["_step_lockstep"][1]) == [
            "eval", "commit", "watchers"
        ]
        # line numbers must be strictly increasing for bisect
        for linenos, _ in table.values():
            assert linenos == sorted(linenos)

    def test_region_by_line_number(self):
        linenos, regions = _kernel_region_table()["_advance"]
        # a line inside the eval block maps to eval, the predicate test
        # to run_until, lines before the first marker (loop setup) fall
        # back to "kernel"
        assert _region_for_kernel_frame("_advance", linenos[2] + 1) == "eval"
        assert (
            _region_for_kernel_frame("_advance", linenos[0] + 1)
            == "run_until"
        )
        assert (
            _region_for_kernel_frame("_advance", linenos[0] - 1) == "kernel"
        )
        assert _region_for_kernel_frame("_advance", None) == "kernel"
        assert _region_for_kernel_frame("_fast_forward", 1) == "fast_forward"
        assert _region_for_kernel_frame("run_until", 1) == "run_until"
        assert _region_for_kernel_frame("schedule_wake", 1) == "kernel"

    def test_subsystem_by_filename(self):
        cases = {
            "/x/repro/noc/router.py": "Router",
            "/x/repro/noc/ni.py": "NI",
            "/x/repro/noc/packet.py": "NoC",
            "/x/repro/system/processor_ip.py": "ProcessorIP",
            "/x/repro/r8/cpu.py": "ProcessorIP",
            "/x/repro/r8/assembler.py": "Toolchain",
            "/x/repro/serial/uart.py": "Uart",
            "/x/repro/memory/ram.py": "Memory",
            "/x/repro/system/multinoc.py": "System",
            "/x/repro/telemetry/live.py": "Telemetry",
            "/x/repro/host/serial_software.py": "Host",
            "/x/repro/sim/kernel.py": "Kernel",
        }
        for filename, expected in cases.items():
            assert _subsystem_for_filename(filename) == expected, filename
        # outside the package: not ours
        assert _subsystem_for_filename("/usr/lib/python3/json/decoder.py") is None

    def test_read_rss_is_plausible(self):
        rss = read_rss_bytes()
        # a running CPython interpreter needs at least a few MB
        assert rss > 1_000_000


#: profiled wall time of the runs that assert sample coverage: a few
#: milliseconds of scheduling delay at ``stop()`` must stay a small
#: share of the window
COVERAGE_WINDOW_S = 0.3


def run_profiled(interval=0.001, strict=False, min_seconds=0.0):
    """Profile sync plus the printf loop, rerun until *min_seconds*
    of wall time have passed."""
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    prof = session.profile_host(interval=interval)
    start = time.perf_counter()
    session.host.sync()
    session.run(1, PRINTF_LOOP)
    while time.perf_counter() - start < min_seconds:
        session.run(1, PRINTF_LOOP)
    prof.stop()
    return session, prof


class TestHostPerfProfiler:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="interval"):
            HostPerfProfiler(interval=0)

    def test_snapshot_schema_and_coverage(self):
        session, prof = run_profiled(min_seconds=COVERAGE_WINDOW_S)
        assert prof.wall_seconds >= COVERAGE_WINDOW_S
        snap = prof.snapshot()
        assert snap["schema"] == HOSTPERF_SCHEMA
        assert snap["samples"] >= 1
        assert snap["cycles"] == session.sim.cycle
        assert snap["sim_rate_hz"] > 0
        assert snap["host_s_per_kcycle"] > 0
        # every tick's elapsed time lands in some bucket, so the
        # attribution must account for (nearly) all measured wall time
        assert snap["attributed_s"] >= 0.9 * snap["wall_s"]
        by_subsystem = sum(
            v["seconds"] for v in snap["subsystems"].values()
        )
        assert by_subsystem == pytest.approx(snap["attributed_s"], rel=1e-3)
        assert set(snap["regions"]) <= {
            "wake_heap", "eval", "commit", "watchers",
            "fast_forward", "run_until", "kernel", "host",
        }
        # the quiescent kernel fast-forwarded at least once on this
        # mostly-idle workload, counted exactly by the kernel
        assert snap["fast_forward"]["spans"] > 0
        assert snap["fast_forward"]["cycles"] > 0
        assert snap["memory"]["rss_bytes"] > 1_000_000
        assert snap["memory"]["rss_peak_bytes"] >= snap["memory"]["rss_bytes"]

    def test_report_and_folded_output(self):
        session, prof = run_profiled()
        report = prof.report()
        assert "host profile:" in report
        assert "host-s/kcyc" in report
        assert "memory: rss" in report
        for line in prof.folded_stacks():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack or ":" in stack

    def test_empty_report(self):
        prof = HostPerfProfiler()
        assert prof.report() == "host profile (no samples collected)"
        assert prof.folded_stacks() == []

    def test_gc_pauses_are_counted(self):
        session = MultiNoCPlatform.standard().launch()
        prof = session.profile_host(interval=0.05)
        before = prof.gc_pauses
        gc.collect()
        gc.collect()
        prof.stop()
        assert prof.gc_pauses >= before + 2
        assert prof.gc_pause_s >= 0

    def test_detach_restores_simulator(self):
        session = MultiNoCPlatform.standard().launch()
        prof = session.profile_host()
        assert session.sim.hostperf is prof
        session.host.sync()
        assert prof.ff_spans > 0
        prof.detach()
        assert session.sim.hostperf is None
        # the fast-forward count stops advancing once detached
        spans = prof.ff_spans
        session.sim.step(20_000)
        assert session.sim.ff_spans > spans
        assert prof.ff_spans == spans
        # detach is idempotent
        prof.detach()

    def test_run_metrics_flow_into_registry(self, tmp_path):
        session, prof = run_profiled(min_seconds=COVERAGE_WINDOW_S)
        assert prof.wall_seconds >= COVERAGE_WINDOW_S
        record = session.record_run(registry=tmp_path)
        metrics = record["metrics"]
        assert metrics["host_s_per_kcycle"] > 0
        assert metrics["host_rss_peak_mb"] > 1
        assert metrics["host_sample_coverage"] >= 0.9

    def test_late_sampler_start_is_still_attributed(self, monkeypatch):
        """The window opens before the sampler thread runs; the time the
        OS takes to schedule it must land in the first interval."""
        original = HostPerfProfiler._run

        def late_run(self, *args):
            time.sleep(0.02)
            original(self, *args)

        monkeypatch.setattr(HostPerfProfiler, "_run", late_run)
        prof = HostPerfProfiler(interval=0.001).start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.06:
            pass
        prof.stop()
        assert prof.attributed_seconds >= 0.9 * prof.wall_seconds

    def test_bound_metrics_appear_in_prometheus_text(self):
        session, prof = run_profiled()
        text = session.system.stats.registry.prometheus_text()
        assert "host_rss_bytes" in text
        assert "host_profile_samples" in text
        assert "host_attributed_seconds" in text


class TestSurfacing:
    def test_live_frame_carries_host_track(self):
        session = MultiNoCPlatform.standard().launch()
        live = session.live_stream(stride=256)
        prof = session.profile_host(interval=0.001)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        prof.stop()
        frame = live.force()
        host = frame["host"]
        assert host["attached"] is True
        assert host["rss_mb"] > 1
        assert "regions" in host and "host_s_per_kcycle" in host

    def test_unprofiled_frame_has_no_host_track(self):
        session = MultiNoCPlatform.standard().launch()
        live = session.live_stream(stride=256)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        assert "host" not in live.force()

    def test_top_renders_host_panel(self):
        session = MultiNoCPlatform.standard().launch()
        live = session.live_stream(stride=256)
        prof = session.profile_host(interval=0.001)
        stream = io.StringIO()
        MeshTop(color=False, stream=stream).attach(live)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        prof.stop()
        live.force()
        text = stream.getvalue()
        assert "host: rss" in text
        assert "s/kcyc" in text


class TestFlightRecorder:
    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep_frames"):
            FlightRecorder(tmp_path, keep_frames=0)

    def wedge(self, session, max_cycles=20_000):
        session.sim.run_until(lambda: False, max_cycles=max_cycles)

    def test_timeout_produces_complete_bundle(self, tmp_path):
        session = MultiNoCPlatform.standard().launch()
        live = session.live_stream(stride=1024)
        prof = session.profile_host(interval=0.002)
        recorder = session.flight_recorder(tmp_path, keep_frames=8)
        with pytest.raises(SimulationTimeout):
            with recorder.armed(sim=session.sim, hostperf=prof):
                self.wedge(session)
        prof.stop()

        bundle = recorder.last_bundle
        assert bundle is not None and bundle.is_dir()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["schema"] == CRASH_SCHEMA
        assert manifest["exception"]["type"] == "SimulationTimeout"
        assert manifest["cycle"] == session.sim.cycle
        assert manifest["frames"] == len(recorder.frames)
        assert (bundle / "traceback.txt").read_text().strip()

        frames = [
            json.loads(line)
            for line in (bundle / "frames.jsonl").read_text().splitlines()
        ]
        assert len(frames) == manifest["frames"] <= 8
        assert all(f["schema"] == "multinoc-live/1" for f in frames)

        hostperf = json.loads((bundle / "hostperf.json").read_text())
        assert hostperf["schema"] == HOSTPERF_SCHEMA

    def test_health_diagnostics_land_in_bundle(self, tmp_path):
        session = MultiNoCPlatform.standard().launch()
        health = session.monitor_health()
        recorder = session.flight_recorder(tmp_path)
        try:
            self.wedge(session)
        except Exception as exc:
            recorder.record(exc, sim=session.sim, health=health)
        doc = json.loads(
            (recorder.last_bundle / "health.json").read_text()
        )
        assert doc  # the monitor's report is never empty

    def test_bundles_do_not_collide(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        first = recorder.record(RuntimeError("one"))
        second = recorder.record(RuntimeError("two"))
        assert first != second
        assert first.is_dir() and second.is_dir()

    def test_unwatch_stops_mirroring(self, tmp_path):
        session = MultiNoCPlatform.standard().launch()
        live = session.live_stream(stride=256)
        recorder = session.flight_recorder(tmp_path)
        recorder.unwatch()
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        assert len(recorder.frames) == 0


class TestProfileCli:
    """``multinoc system`` carries the whole profiling surface: the
    built-in workload, the hostperf snapshot and the folded stacks."""

    def test_profile_workload(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        rc = main([
            "system", "--workload", "edge-detection",
            "--hostperf-json", "hostperf.json",
            "--flamegraph", "hostperf.folded",
            "--no-record",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "edge-detection: output matches the reference" in out
        assert "host profile:" in out
        assert "hostperf snapshot -> hostperf.json" in out

        doc = json.loads((tmp_path / "hostperf.json").read_text())
        assert doc["schema"] == HOSTPERF_SCHEMA
        attributed = sum(
            v["seconds"] for v in doc["subsystems"].values()
        )
        assert attributed >= 0.9 * doc["wall_s"]
        folded = (tmp_path / "hostperf.folded").read_text().splitlines()
        assert folded
        stack, count = folded[0].rsplit(" ", 1)
        assert int(count) >= 1

    def test_profile_program_records_run(self, tmp_path, capsys):
        from repro.cli import main

        asm = tmp_path / "hello.asm"
        asm.write_text(PRINTF_LOOP)
        rc = main([
            "system", str(asm), "--hostperf",
            "--runs-dir", str(tmp_path / "runs"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "run record" in err
        from repro.telemetry.registry import RunRegistry

        records = RunRegistry(tmp_path / "runs").records()
        assert len(records) == 1
        assert records[0]["kind"] == "system"
        assert records[0]["metrics"]["host_s_per_kcycle"] > 0

    def test_profile_requires_input(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["system"]) == 2
        assert "error:" in capsys.readouterr().err
        asm = tmp_path / "hello.asm"
        asm.write_text(PRINTF_LOOP)
        assert main(["system", str(asm), "--workload", "edge-detection"]) == 2
        assert "exactly one of FILE or --workload" in capsys.readouterr().err

    def test_profile_crash_writes_bundle(self, tmp_path, capsys):
        from repro.cli import main

        # scanf with no answers wedges the run into a timeout
        asm = tmp_path / "wedge.asm"
        asm.write_text(
            """
        CLR  R0
        LDI  R2, 0xFFFE
        LD   R3, R2, R0
        HALT
        """
        )
        crash_dir = tmp_path / "crashes"
        rc = main([
            "system", str(asm),
            "--hostperf",
            "--max-cycles", "40000",
            "--crash-dir", str(crash_dir),
            "--no-record",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "crash bundle ->" in err
        bundles = list(crash_dir.iterdir())
        assert len(bundles) == 1
        manifest = json.loads((bundles[0] / "manifest.json").read_text())
        assert manifest["schema"] == CRASH_SCHEMA
        assert (bundles[0] / "hostperf.json").exists()


class TestEquivalence:
    @pytest.mark.parametrize("strict", [False, True])
    def test_sampled_run_is_bit_identical(self, strict):
        """The sampling profiler must not perturb the printf loop's
        run in either kernel mode: the oracle's whole digest matches."""
        assert_matches_lockstep(
            Draw(PRINTF_BOARD, (strict,), frozenset({"hostperf"}))
        )

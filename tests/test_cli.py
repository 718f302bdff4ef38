"""Tests for the command-line toolchain."""

import pytest

from repro.cli import main

HELLO = """
        CLR  R0
        LDI  R1, 42
        LDI  R2, 0xFFFF
        ST   R1, R2, R0
        HALT
"""

ECHO = """
        CLR  R0
        LDI  R2, 0xFFFF
        LD   R1, R2, R0
        ST   R1, R2, R0
        HALT
"""

C_SOURCE = "void main() { printf(6 * 7); halt(); }"


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "hello.asm"
    path.write_text(HELLO)
    return path


class TestAsmDis:
    def test_asm_writes_object(self, asm_file, tmp_path, capsys):
        out = tmp_path / "hello.obj"
        assert main(["asm", str(asm_file), "-o", str(out)]) == 0
        assert out.exists()
        assert "words ->" in capsys.readouterr().out

    def test_asm_listing(self, asm_file, capsys):
        main(["asm", str(asm_file), "--listing"])
        assert "HALT" in capsys.readouterr().out

    def test_dis_roundtrip(self, asm_file, tmp_path, capsys):
        out = tmp_path / "hello.obj"
        main(["asm", str(asm_file), "-o", str(out)])
        capsys.readouterr()
        main(["dis", str(out)])
        text = capsys.readouterr().out
        assert "LDL" in text and "HALT" in text


class TestRun:
    def test_run_source_directly(self, asm_file, capsys):
        assert main(["run", str(asm_file)]) == 0
        out = capsys.readouterr().out
        assert "printf: 42" in out
        assert "CPI" in out

    def test_run_object_file(self, asm_file, tmp_path, capsys):
        obj = tmp_path / "hello.obj"
        main(["asm", str(asm_file), "-o", str(obj)])
        capsys.readouterr()
        main(["run", str(obj)])
        assert "printf: 42" in capsys.readouterr().out

    def test_run_with_scanf(self, tmp_path, capsys):
        path = tmp_path / "echo.asm"
        path.write_text(ECHO)
        main(["run", str(path), "--scanf", "0x1F"])
        assert "printf: 31" in capsys.readouterr().out

    def test_malformed_scanf_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "echo.asm"
        path.write_text(ECHO)
        assert main(["run", str(path), "--scanf", "1,x"]) == 2
        assert "error: --scanf" in capsys.readouterr().err


class TestDebug:
    def test_script_file(self, asm_file, tmp_path, capsys):
        script = tmp_path / "session.dbg"
        script.write_text("run\nregs\n")
        assert main(["debug", str(asm_file), "--script", str(script)]) == 0
        out = capsys.readouterr().out
        assert "(r8db) run" in out
        assert "HALT" in out

    def test_needs_file_or_system(self, tmp_path, capsys):
        script = tmp_path / "s.dbg"
        script.write_text("cycle\n")
        assert main(["debug", "--script", str(script)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_system_session(self, asm_file, tmp_path, capsys):
        script = tmp_path / "s.dbg"
        script.write_text("hbreak printf\ncontinue\ninfo\nregs 1\ncontinue\n")
        assert (
            main(["debug", str(asm_file), "--system", "--script", str(script)])
            == 0
        )
        out = capsys.readouterr().out
        assert "(mndb) continue" in out
        assert "host printf frame" in out
        assert "checkpoint ring" in out
        assert "PC=" in out
        assert "quiescent" in out

    def test_system_checkpoint_artifact(self, asm_file, tmp_path, capsys):
        import json

        script = tmp_path / "s.dbg"
        script.write_text("continue\n")
        ckpt = tmp_path / "state.ckpt"
        assert (
            main(
                [
                    "debug",
                    str(asm_file),
                    "--system",
                    "--script",
                    str(script),
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        assert "checkpoint ->" in capsys.readouterr().out
        doc = json.loads(ckpt.read_text())
        assert doc["schema"].startswith("multinoc-checkpoint/")
        assert doc["meta"]["mesh"] == [2, 2]

    def test_system_bad_command_fails(self, tmp_path, capsys):
        script = tmp_path / "s.dbg"
        script.write_text("frobnicate\n")
        assert main(["debug", "--system", "--script", str(script)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_system_reverse_step_script(self, asm_file, tmp_path, capsys):
        script = tmp_path / "s.dbg"
        script.write_text(
            "hbreak printf\ncontinue\nreverse-step 100\ncontinue\ncycle\n"
        )
        assert (
            main(
                [
                    "debug",
                    str(asm_file),
                    "--system",
                    "--script",
                    str(script),
                    "--checkpoint-interval",
                    "200",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # the frame break hit, we rewound >= 100 cycles, and the replay
        # re-hit it at the identical cycle
        hits = [
            line
            for line in out.splitlines()
            if "host printf frame" in line and "stopped" not in line
        ]
        assert len(hits) == 2
        assert hits[0] == hits[1]


class TestCc:
    def test_emit_asm(self, tmp_path, capsys):
        path = tmp_path / "x.c"
        path.write_text(C_SOURCE)
        main(["cc", str(path), "-S"])
        assert "main:" in capsys.readouterr().out

    def test_compile_and_run(self, tmp_path, capsys):
        src = tmp_path / "x.c"
        src.write_text(C_SOURCE)
        obj = tmp_path / "x.obj"
        main(["cc", str(src), "-o", str(obj)])
        capsys.readouterr()
        main(["run", str(obj)])
        assert "printf: 42" in capsys.readouterr().out


class TestRunFailure:
    def test_nonhalting_program_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "spin.asm"
        path.write_text("loop:   JMPD loop\n")
        assert main(["run", str(path), "--max-instructions", "50"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "halted" not in captured.out

    def test_printf_values_still_reported_on_failure(self, tmp_path, capsys):
        path = tmp_path / "partial.asm"
        path.write_text(
            "        CLR  R0\n"
            "        LDI  R1, 9\n"
            "        LDI  R2, 0xFFFF\n"
            "        ST   R1, R2, R0\n"
            "loop:   JMPD loop\n"
        )
        assert main(["run", str(path), "--max-instructions", "50"]) == 1
        assert "printf: 9" in capsys.readouterr().out


class TestSystem:
    def test_full_platform_run(self, asm_file, capsys):
        assert main(["system", str(asm_file), "--proc", "2"]) == 0
        out = capsys.readouterr().out
        assert "P2 printf" in out
        assert "halted at cycle" in out

    def test_no_idle_skip_matches_default_kernel(self, asm_file, capsys):
        """--no-idle-skip (strict lock-step) must reach the same cycle."""
        assert main(["system", str(asm_file)]) == 0
        quiescent = capsys.readouterr().out
        assert main(["system", str(asm_file), "--no-idle-skip"]) == 0
        strict = capsys.readouterr().out
        assert "halted at cycle" in quiescent
        assert quiescent == strict

    def test_stats_report(self, asm_file, capsys):
        assert main(["system", str(asm_file), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "packets:" in out and "in flight" in out
        assert "latency (cycles):" in out and "p99" in out
        assert "mesh utilisation" in out

    def test_trace_and_jsonl_export(self, asm_file, tmp_path, capsys):
        import json

        trace = tmp_path / "out.json"
        jsonl = tmp_path / "out.jsonl"
        assert (
            main(
                [
                    "system",
                    str(asm_file),
                    "--trace",
                    str(trace),
                    "--trace-jsonl",
                    str(jsonl),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chrome trace" in out and "event log" in out
        doc = json.loads(trace.read_text())
        assert all(
            {"name", "ph", "ts", "pid", "tid"} <= set(e)
            for e in doc["traceEvents"]
        )
        for line in jsonl.read_text().splitlines():
            json.loads(line)

    def test_metrics_dump(self, asm_file, capsys):
        assert main(["system", str(asm_file), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE noc_flits_sent_total counter" in out
        assert "noc_packets_delivered_total" in out

    def test_profile_report(self, asm_file, capsys):
        assert main(["system", str(asm_file), "--hostperf"]) == 0
        out = capsys.readouterr().out
        assert "host profile" in out
        assert "fast-forward:" in out

    def test_monitor_healthy_run(self, asm_file, tmp_path, capsys):
        import json

        report = tmp_path / "health.json"
        assert (
            main(
                [
                    "system",
                    str(asm_file),
                    "--monitor",
                    "--live-stride",
                    "500",
                    "--health-report",
                    str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "health: OK, no violations" in out
        assert "health timeline:" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == "multinoc-health/1"
        assert doc["violations"] == []
        assert doc["sampler"]["interval"] == 500
        names = set(doc["sampler"]["series"])
        assert "in_flight" in names
        assert any(n.startswith("router_occupancy.") for n in names)

    def test_monitor_diagnoses_failed_run(self, tmp_path, capsys):
        import json

        # scanf with no answer supplied: the core wedges, the CPU-stall
        # watchdog fires long before --max-cycles would
        path = tmp_path / "wedge.asm"
        path.write_text(ECHO)
        report = tmp_path / "health.json"
        assert (
            main(
                [
                    "system",
                    str(path),
                    "--monitor",
                    "--max-cycles",
                    "400000",
                    "--health-report",
                    str(report),
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "cpu_stall" in err or "error:" in err
        doc = json.loads(report.read_text())
        assert doc["violations"], "the failure must land in the report"

    def test_failed_run_still_prints_profile(self, tmp_path, capsys):
        # exactly the runs that most need profiling: a timed-out run
        # must still emit the host-profile table before returning 1
        path = tmp_path / "wedge.asm"
        path.write_text(ECHO)
        assert (
            main(
                [
                    "system",
                    str(path),
                    "--hostperf",
                    "--max-cycles",
                    "40000",
                    "--no-record",
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "host profile" in captured.out

    def test_failed_run_flushes_exports(self, tmp_path, capsys):
        path = tmp_path / "wedge.asm"
        path.write_text(ECHO)
        trace = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "system",
                    str(path),
                    "--monitor",
                    "--trace-jsonl",
                    str(trace),
                    "--max-cycles",
                    "400000",
                    "--no-record",
                ]
            )
            == 1
        )
        assert "event log ->" in capsys.readouterr().out
        assert trace.exists() and trace.read_text().strip()

    def test_hostperf_flag(self, asm_file, capsys):
        assert (
            main(["system", str(asm_file), "--hostperf", "--no-record"]) == 0
        )
        out = capsys.readouterr().out
        assert "host profile" in out
        assert "memory: rss" in out

    def test_crash_dir_writes_bundle_on_failure(self, tmp_path, capsys):
        import json

        path = tmp_path / "wedge.asm"
        path.write_text(ECHO)
        crash_dir = tmp_path / "crashes"
        assert (
            main(
                [
                    "system",
                    str(path),
                    "--hostperf",
                    "--crash-dir",
                    str(crash_dir),
                    "--max-cycles",
                    "40000",
                    "--no-record",
                ]
            )
            == 1
        )
        assert "crash bundle ->" in capsys.readouterr().err
        bundles = list(crash_dir.iterdir())
        assert len(bundles) == 1
        manifest = json.loads((bundles[0] / "manifest.json").read_text())
        assert manifest["schema"] == "multinoc-crash/1"
        assert manifest["exception"]["type"] == "SimulationTimeout"

    def test_malformed_scanf_is_a_usage_error(self, asm_file, capsys):
        assert main(["system", str(asm_file), "--scanf", "1,x"]) == 2
        assert "error: --scanf" in capsys.readouterr().err

    def test_timeout_without_observers_is_an_error_not_a_traceback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "wedge.asm"
        path.write_text(ECHO)
        assert (
            main(["system", str(path), "--max-cycles", "40000", "--no-record"])
            == 1
        )
        assert "error:" in capsys.readouterr().err

    def test_failed_served_alerted_run_tears_down(
        self, tmp_path, monkeypatch, capsys
    ):
        import socket

        from repro.telemetry.alerts import AlertEngine
        from repro.telemetry.registry import RunRegistry
        from repro.telemetry.server import TelemetryServer

        closed = []
        for cls in (AlertEngine, TelemetryServer):
            def spy(self, _close=cls.close, _name=cls.__name__):
                closed.append(_name)
                return _close(self)

            monkeypatch.setattr(cls, "close", spy)
        path = tmp_path / "wedge.asm"
        path.write_text(ECHO)
        rules = tmp_path / "rules.alerts"
        rules.write_text("alert busy\n    expr: in_flight > 1000\n")
        runs = tmp_path / "runs"
        assert (
            main(
                [
                    "system", str(path),
                    "--serve", "0",
                    "--alerts", str(rules),
                    "--alert-log", str(tmp_path / "alerts.jsonl"),
                    "--max-cycles", "40000",
                    "--runs-dir", str(runs),
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert sorted(closed) == ["AlertEngine", "TelemetryServer"]
        address = captured.out.split("telemetry server -> ")[1].split()[0]
        port = int(address.rsplit(":", 1)[1].rstrip("/"))
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
        (record,) = RunRegistry(runs).records()
        assert record["kind"] == "system"
        assert record["status"] == "failed" and record["exit_code"] == 1


class TestTop:
    def test_fleet_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["top", "--url", "http://127.0.0.1:9", "--fleet"])
        assert excinfo.value.code == 2
        assert "--fleet" in capsys.readouterr().err


class TestPrototype:
    def test_report(self, capsys):
        assert main(["prototype", "--iterations", "300"]) == 0
        out = capsys.readouterr().out
        assert "slices" in out and "MHz" in out

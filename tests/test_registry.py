"""Cross-run observatory: registry persistence, trends, and the runs CLI."""

import json

import pytest

from repro.cli import main
from repro.core import MultiNoCPlatform
from repro.telemetry.registry import (
    RegistryError,
    RunRegistry,
    config_digest,
    flatten_metrics,
    machine_fingerprint,
)
from repro.telemetry.trend import (
    classify_change,
    compute_trend,
    diff_records,
    metric_arrow,
    select_comparable,
)

#: one synthetic machine shared by generated histories, so tests behave
#: identically on every host that runs them
MACHINE = {
    "python": "3.12.0",
    "platform": "linux",
    "cpu_count": 8,
    "fingerprint": "test-machine-0",
}


def make_history(registry, values, *, metric="latency_mean", **overrides):
    """Append one record per value with increasing timestamps."""
    records = []
    for i, value in enumerate(values):
        kwargs = dict(
            kind="bench",
            timestamp=1_700_000_000 + 60 * i,
            metrics={metric: value},
            machine=MACHINE,
            config="cfg-000000000000",
            git_rev=f"rev{i:04d}",
        )
        kwargs.update(overrides)
        records.append(registry.record(**kwargs))
    return records


class TestFingerprints:
    def test_machine_fingerprint_is_stable(self):
        a, b = machine_fingerprint(), machine_fingerprint()
        assert a == b
        assert set(a) == {"python", "platform", "cpu_count", "fingerprint"}
        assert len(a["fingerprint"]) == 12

    def test_config_digest_tracks_content(self):
        base = MultiNoCPlatform.standard().config
        same = MultiNoCPlatform.standard().config
        other = MultiNoCPlatform((3, 3), n_processors=3, n_memories=2).config
        assert config_digest(base) == config_digest(same)
        assert config_digest(base) != config_digest(other)
        assert config_digest(None) is None

    def test_flatten_metrics(self):
        flat = flatten_metrics(
            {"a": 1, "nest": {"b": 2.5, "skip": "text", "flag": True}}
        )
        assert flat == {"a": 1.0, "nest.b": 2.5}


class TestRegistryPersistence:
    def test_record_round_trip(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        record = registry.record(
            kind="session",
            timestamp=1_700_000_000,
            metrics={"cycles": 7015.0},
            machine=MACHINE,
            artifacts={"trace": "out.json"},
            git_rev="abc123",
        )
        assert record["run_id"].startswith("run-2023")
        loaded = registry.load(record["run_id"])
        assert loaded == record
        index = registry.index()
        assert [e["run_id"] for e in index] == [record["run_id"]]
        assert index[0]["fingerprint"] == "test-machine-0"

    def test_append_refuses_collisions(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        record = registry.record(kind="bench", timestamp=1, git_rev=None)
        with pytest.raises(RegistryError, match="append-only"):
            registry.append(dict(record))

    def test_default_root_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTINOC_RUNS_DIR", str(tmp_path / "env-root"))
        registry = RunRegistry()
        registry.record(kind="bench", timestamp=1, git_rev=None)
        assert (tmp_path / "env-root" / "index.jsonl").exists()

    def test_index_survives_deletion(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        records = make_history(registry, [1.0, 2.0, 3.0])
        registry.index_path.unlink()
        # fallback scan still sees every record, oldest first
        assert [e["run_id"] for e in registry.index()] == [
            r["run_id"] for r in records
        ]
        assert registry.rebuild_index() == 3
        assert registry.index_path.exists()

    def test_records_filters_and_limit(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        make_history(registry, [1.0, 2.0])
        registry.record(
            kind="system", timestamp=9_999_999_999, machine=MACHINE,
            git_rev=None,
        )
        assert len(registry.records(kind="bench")) == 2
        assert len(registry.records(kind="system")) == 1
        assert len(registry.records(limit=1)) == 1
        assert registry.latest()["kind"] == "system"

    def test_gc_keeps_newest(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        records = make_history(registry, [float(i) for i in range(5)])
        removed = registry.gc(keep=2)
        assert removed == [r["run_id"] for r in records[:3]]
        survivors = [e["run_id"] for e in registry.index()]
        assert survivors == [r["run_id"] for r in records[3:]]
        for run_id in removed:
            assert not registry.path_of(run_id).exists()


class TestSessionRecording:
    def test_platform_session_record_run(self, tmp_path):
        session = MultiNoCPlatform.standard().launch()
        session.run(
            1,
            "  LDI R1, 7\n  LDI R2, 0xFFFF\n  CLR R0\n"
            "  ST R1, R2, R0\n  HALT",
        )
        record = session.record_run(registry=tmp_path / "runs", git_rev=None)
        assert record["kind"] == "session"
        assert record["config_digest"] == config_digest(session.system.config)
        metrics = record["metrics"]
        assert metrics["cycles"] == float(session.sim.cycle)
        assert metrics["packets_delivered"] > 0
        assert "latency_mean" in metrics
        assert record["meta"]["mesh"] == [2, 2]
        # the record is durable and queryable
        assert RunRegistry(tmp_path / "runs").latest() == record


class TestTrendEngine:
    def test_stable_history_is_ok(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        # +/-3% jitter around 50: inside the 10% threshold, never flagged
        values = [50.0 * (1 + 0.03 * (-1) ** i) for i in range(10)]
        report = compute_trend(make_history(registry, values))
        assert report.ok
        assert report.runs == 10

    def test_sustained_regression_is_flagged(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        values = [50.0] * 7 + [100.0, 100.0, 100.0]  # 2x from run 8 on
        records = make_history(registry, values)
        report = compute_trend(records)
        (entry,) = report.flagged
        assert entry.metric == "latency_mean"
        assert entry.sustained == 3
        assert entry.change_point == records[7]["run_id"]

    def test_single_spike_is_not_sustained(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        values = [50.0] * 8 + [100.0, 50.0]
        report = compute_trend(make_history(registry, values))
        assert report.ok

    def test_short_history_never_flags(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        report = compute_trend(make_history(registry, [50.0, 100.0, 100.0]))
        assert report.ok
        assert any("below min history" in note for note in report.notes)

    def test_cross_machine_records_are_excluded_with_note(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        other = dict(MACHINE, fingerprint="other-machine-9")
        make_history(registry, [50.0, 51.0], machine=other)
        make_history(registry, [50.0, 50.0, 50.0, 50.0])
        records = registry.records()
        notes = []
        kept, fingerprint, _ = select_comparable(records, notes=notes)
        assert fingerprint == "test-machine-0"
        assert len(kept) == 4
        assert any("other machines" in n for n in notes)
        forced, _, _ = select_comparable(records, allow_cross_machine=True)
        assert len(forced) == 6

    def test_diff_records(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        base, cur = make_history(registry, [50.0, 120.0])
        diff = diff_records(cur, base)
        assert not diff.ok
        assert diff.regressions == [("latency_mean", 50.0, 120.0)]
        assert diff_records(base, base).ok

    def test_improvement_is_measured_against_the_baseline(self):
        """100 -> 85 is a 15 % drop of the baseline: within a 15 %
        threshold for both the record diff and the trace diff."""
        diff = diff_records(
            {"metrics": {"m": 85}}, {"metrics": {"m": 100}}, threshold_pct=15
        )
        assert diff.improvements == [] and diff.unchanged == 1
        assert classify_change(85, 100, 15, 0) == 0
        assert classify_change(84, 100, 15, 0) == -1
        assert classify_change(116, 100, 15, 0) == 1
        history = [
            {"run_id": f"r{i}", "machine": MACHINE, "metrics": {"m": v}}
            for i, v in enumerate([100, 100, 100, 85])
        ]
        entry = compute_trend(history, threshold_pct=15).entries[0]
        assert not entry.improved and not entry.regressed


class TestRunsCli:
    def test_show_round_trips_bit_identically(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        (record,) = make_history(registry, [50.0])
        assert main(
            ["runs", "show", "--dir", str(registry.root), record["run_id"]]
        ) == 0
        shown = capsys.readouterr().out
        assert shown == registry.path_of(record["run_id"]).read_text()
        assert json.loads(shown) == record

    def test_list_and_json(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        make_history(registry, [50.0, 51.0])
        assert main(["runs", "list", "--dir", str(registry.root)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out and "test-machine-0" in out
        assert main(
            ["runs", "list", "--dir", str(registry.root), "--json",
             "--limit", "1"]
        ) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1

    def test_list_metric_column_renders_trend_arrows(
        self, tmp_path, capsys
    ):
        registry = RunRegistry(tmp_path / "runs")
        make_history(registry, [50.0, 50.0, 50.0, 90.0])
        registry.record(
            kind="bench", timestamp=1_700_001_000, machine=MACHINE,
            metrics={"cycles": 1.0}, git_rev="rev9999",
        )
        assert main(
            ["runs", "list", "--dir", str(registry.root),
             "--metric", "latency_mean"]
        ) == 0
        out = capsys.readouterr().out
        assert "LATENCY_MEAN" in out            # column header
        assert "50 →" in out                    # flat early history
        assert "90 ↑" in out                    # last value jumped
        assert " - " in out                     # record without the metric
        assert "5 run(s)" in out

    def test_metric_arrow_glyphs(self):
        assert metric_arrow([50.0]) == "→"
        assert metric_arrow([50.0, 51.0]) == "→"
        assert metric_arrow([50.0, 50.0, 90.0]) == "↑"
        assert metric_arrow([50.0, 50.0, 20.0]) == "↓"

    def test_missing_record_exits_2(self, tmp_path, capsys):
        root = tmp_path / "runs"
        RunRegistry(root).record(kind="bench", timestamp=1, git_rev=None)
        assert main(["runs", "show", "--dir", str(root), "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trend_gates_injected_regression(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        make_history(registry, [50.0] * 7 + [100.0, 100.0, 100.0])
        code = main(
            ["runs", "trend", "--dir", str(registry.root),
             "--metric", "latency_mean"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out and "x3 since" in out

    def test_trend_tolerates_jitter(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        make_history(
            registry, [50.0 * (1 + 0.03 * (-1) ** i) for i in range(10)]
        )
        assert main(["runs", "trend", "--dir", str(registry.root)]) == 0
        assert "no sustained regressions" in capsys.readouterr().out

    def test_trend_json_report(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        make_history(registry, [50.0] * 7 + [100.0] * 3)
        out_path = tmp_path / "trend.json"
        code = main(
            ["runs", "trend", "--dir", str(registry.root),
             "--json", str(out_path)]
        )
        assert code == 1
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "multinoc-trend/1"
        assert doc["ok"] is False
        capsys.readouterr()

    def test_diff_cli(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        base, cur = make_history(registry, [50.0, 120.0])
        code = main(
            ["runs", "diff", "--dir", str(registry.root),
             base["run_id"], cur["run_id"]]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert main(
            ["runs", "diff", "--dir", str(registry.root),
             base["run_id"], base["run_id"]]
        ) == 0
        capsys.readouterr()

    def test_gc_cli(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        make_history(registry, [float(i) for i in range(5)])
        assert main(
            ["runs", "gc", "--dir", str(registry.root), "--keep", "2"]
        ) == 0
        assert "removed 3 record(s)" in capsys.readouterr().out
        assert len(registry.index()) == 2


class TestSystemCliRecording:
    ASM = (
        "        CLR  R0\n"
        "        LDI  R1, 42\n"
        "        LDI  R2, 0xFFFF\n"
        "        ST   R1, R2, R0\n"
        "        HALT\n"
    )

    def test_system_records_automatically(self, tmp_path, capsys):
        asm = tmp_path / "hello.asm"
        asm.write_text(self.ASM)
        root = tmp_path / "runs"
        assert main(
            ["system", str(asm), "--runs-dir", str(root)]
        ) == 0
        captured = capsys.readouterr()
        # the record notice goes to stderr: stdout must stay comparable
        assert "run record" in captured.err
        assert "run record" not in captured.out
        record = RunRegistry(root).latest()
        assert record["kind"] == "system"
        assert record["status"] == "ok"
        assert record["metrics"]["cycles"] > 0
        assert record["meta"]["program"] == str(asm)

    def test_system_no_record_opts_out(self, tmp_path, capsys):
        asm = tmp_path / "hello.asm"
        asm.write_text(self.ASM)
        root = tmp_path / "runs"
        assert main(
            ["system", str(asm), "--runs-dir", str(root), "--no-record"]
        ) == 0
        capsys.readouterr()
        assert not root.exists()

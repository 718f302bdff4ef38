"""Alerting & SLO engine: rules, lifecycle, sinks, replay.

Covers the declarative rule language (expressions, label matchers, rule
files), the Prometheus-style pending→firing→resolved lifecycle measured
in simulated cycles, SLO error-budget/burn-rate accounting, every
fan-out sink (JSONL log, notify stream, telemetry events, metrics
registry, ``/alerts`` endpoint, ``multinoc top`` banner), the post-hoc
replay paths (``alerts check`` over mirrored traces and registry
records) — and live verdicts identical to replayed verdicts.  That an
alerted run is bit-identical to an unalerted one is checked by the
``alerts`` observer of the equivalence oracle in
``tests/test_equivalence.py``, pinned here on the printf loop.
"""

import io
import json
import urllib.request

import pytest

from repro.cli import main
from repro.core import MultiNoCPlatform
from repro.telemetry import (
    ALERT_SCHEMA,
    ALERTS_DOC_SCHEMA,
    AlertEngine,
    MeshTop,
    MetricsRegistry,
    RuleError,
    TelemetrySink,
    check_frames,
    check_records,
    frames_from_trace,
    load_jsonl,
    parse_condition,
    parse_rules,
    write_jsonl,
)
from repro.telemetry.live import FRAME_FIELDS

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

#: a rule that deliberately fires on any serial traffic, plus an SLO
HOT_RULES = """
# fires on any active link, pends one stride first
alert link_hot
    expr: link_util{link=~".*"} > 0.01
    for: 256
    severity: page
    annotation: link {{link}} utilisation {{value}}

slo delivery_latency
    expr: latency_p99 <= 500
    target: 0.9
    window: 4096
"""


def frame(cycle, *, links=None, latency=None, health=None, window=256):
    """A minimal synthetic ``multinoc-live/1`` frame for unit tests."""
    out = {"schema": "multinoc-live/1", "cycle": cycle, "window": window}
    if links is not None:
        out["links"] = links
    if latency is not None:
        out["latency"] = latency
    if health is not None:
        out["health"] = health
    return out


class TestParseCondition:
    def test_scalar_numeric(self):
        cond = parse_condition("latency_p99 > 120")
        assert (cond.field, cond.op, cond.value) == ("latency_p99", ">", 120.0)
        assert cond.label is None
        assert cond.source == "latency_p99 > 120"

    def test_bareword_string_value(self):
        cond = parse_condition("health != ok")
        assert cond.value == "ok"
        assert cond.holds("violating") and not cond.holds("ok")

    def test_quoted_string_value(self):
        cond = parse_condition('cpu_state{cpu="proc1"} == "halted"')
        assert cond.value == "halted"
        assert cond.exact == "proc1"

    def test_label_regex_matcher(self):
        cond = parse_condition('link_util{link=~"router0.*"} >= 0.9')
        fields = {
            "link_util": {
                "__label__": "link",
                "router00.EAST": 0.95,
                "router11.WEST": 0.99,
            }
        }
        assert cond.instances(fields) == [({"link": "router00.EAST"}, 0.95)]

    def test_unmatched_label_selects_all_instances(self):
        cond = parse_condition("link_util > 0.5")
        fields = {"link_util": {"__label__": "link", "a": 0.1, "b": 0.9}}
        assert cond.instances(fields) == [({"link": "a"}, 0.1), ({"link": "b"}, 0.9)]

    def test_scalar_without_data_yields_no_instances(self):
        assert parse_condition("latency_p99 > 1").instances({}) == []

    def test_mismatched_types_never_hold(self):
        assert not parse_condition("health > 3").holds("ok")
        assert not parse_condition("latency_p99 != ok").holds(42.0)

    def test_parse_errors(self):
        with pytest.raises(RuleError, match="cannot parse"):
            parse_condition("latency_p99 >")
        with pytest.raises(RuleError, match="bad label regex"):
            parse_condition('link_util{link=~"["} > 0.5')
        with pytest.raises(RuleError, match="scalar"):
            parse_condition('latency_p99{link="x"} > 0.5')


class TestParseRules:
    def test_full_file(self):
        rules = parse_rules(HOT_RULES)
        assert rules.names() == ["link_hot", "slo:delivery_latency"]
        alert = rules.alerts[0]
        assert alert.for_cycles == 256
        assert alert.severity == "page"
        assert "{{link}}" in alert.annotation
        slo = rules.slos[0]
        assert slo.target == 0.9 and slo.window == 4096
        assert slo.budget == pytest.approx(0.1)

    def test_defaults(self):
        rules = parse_rules("alert a\n    expr: in_flight > 100\n")
        assert rules.alerts[0].for_cycles == 0
        assert rules.alerts[0].severity == "warning"
        assert rules.alerts[0].annotation is None

    def test_labels_clause(self):
        rules = parse_rules(
            "alert a\n    expr: in_flight > 1\n    labels: team=noc, tier=1\n"
        )
        assert rules.alerts[0].labels == {"team": "noc", "tier": "1"}

    @pytest.mark.parametrize(
        "text, match",
        [
            ("alert a\n    for: 5\n", "has no expr"),
            ("    expr: x > 1\n", "outside a block"),
            ("alert a\n    expr: x > 1\n    bogus: 2\n", "unknown alert clause"),
            ("alert a\n    expr: x > 1\n    expr: y > 1\n", "duplicate clause"),
            ("whatever a\n", "expected 'alert NAME'"),
            (
                "alert a\n    expr: x > 1\nalert a\n    expr: y > 1\n",
                "duplicate rule name",
            ),
            ("slo s\n    expr: x > 1\n    window: 10\n", "needs a target"),
            (
                "slo s\n    expr: x>1\n    target: 1.5\n    window: 10\n",
                "target must be",
            ),
            (
                "slo s\n    expr: x>1\n    target: 0.9\n    window: 0\n",
                "window must be",
            ),
            ("alert a\n    expr: x > 1\n    for: -5\n", "for must be"),
        ],
    )
    def test_rejects(self, text, match):
        with pytest.raises(RuleError, match=match):
            parse_rules(text)


class TestLifecycle:
    def engine(self, text, **kwargs):
        return AlertEngine(parse_rules(text), **kwargs)

    def test_zero_for_fires_immediately_and_resolves(self):
        engine = self.engine("alert a\n    expr: in_flight > 10\n")
        fired = engine.observe_sample({"in_flight": 11}, cycle=100)
        assert [t["state"] for t in fired] == ["firing"]
        assert fired[0]["cycle"] == 100 and fired[0]["since_cycle"] == 100
        resolved = engine.observe_sample({"in_flight": 3}, cycle=200)
        assert [t["state"] for t in resolved] == ["resolved"]
        assert engine.firing() == []
        assert engine.fired_ever() == ["a"]

    def test_for_duration_in_cycles(self):
        engine = self.engine("alert a\n    expr: in_flight > 10\n    for: 500\n")
        assert [
            t["state"] for t in engine.observe_sample({"in_flight": 11}, cycle=0)
        ] == ["pending"]
        # held, but not yet for 500 simulated cycles
        assert engine.observe_sample({"in_flight": 12}, cycle=256) == []
        assert engine.pending() and not engine.firing()
        fired = engine.observe_sample({"in_flight": 12}, cycle=512)
        assert [t["state"] for t in fired] == ["firing"]
        assert fired[0]["since_cycle"] == 0 and fired[0]["fired_cycle"] == 512

    def test_pending_clears_silently(self):
        engine = self.engine("alert a\n    expr: in_flight > 10\n    for: 500\n")
        engine.observe_sample({"in_flight": 11}, cycle=0)
        assert engine.observe_sample({"in_flight": 1}, cycle=256) == []
        assert engine.pending() == [] and engine.fired_ever() == []
        # a fresh excursion restarts the clock
        engine.observe_sample({"in_flight": 11}, cycle=512)
        assert engine.observe_sample({"in_flight": 11}, cycle=768) == []
        assert [
            t["state"] for t in engine.observe_sample({"in_flight": 11}, cycle=1024)
        ] == ["firing"]

    def test_vector_series_have_independent_lifecycles(self):
        engine = self.engine("alert hot\n    expr: link_util > 0.9\n")
        f1 = frame(0, links={"a.EAST": 0.95, "b.WEST": 0.5})
        engine.observe_frame(f1)
        assert [a["series"] for a in engine.firing()] == ["hot{link=a.EAST}"]
        f2 = frame(256, links={"a.EAST": 0.2, "b.WEST": 0.95})
        engine.observe_frame(f2)
        states = {
            (t["labels"]["link"], t["state"]) for t in engine.transitions
        }
        assert ("a.EAST", "resolved") in states
        assert ("b.WEST", "firing") in states

    def test_vanished_series_resolves(self):
        # an idle link drops out of the frame entirely; the firing
        # series must resolve exactly as if it reported a false value
        engine = self.engine("alert hot\n    expr: link_util > 0.9\n")
        engine.observe_frame(frame(0, links={"a.EAST": 0.95}))
        assert engine.firing()
        engine.observe_frame(frame(256, links={}))
        assert engine.firing() == []
        assert [t["state"] for t in engine.transitions] == ["firing", "resolved"]

    def test_annotation_templating(self):
        engine = self.engine(
            "alert hot\n"
            "    expr: link_util > 0.9\n"
            "    labels: team=noc\n"
            "    annotation: {{team}} link {{link}} util {{value}} @{{cycle}}\n"
        )
        engine.observe_frame(frame(512, links={"a.EAST": 0.95}))
        t = engine.transitions[-1]
        assert t["annotation"] == "noc link a.EAST util 0.95 @512"
        assert t["labels"] == {"team": "noc", "link": "a.EAST"}

    def test_render_notice_is_one_line(self):
        engine = self.engine("alert a\n    expr: in_flight > 10\n")
        t = engine.observe_sample({"in_flight": 11}, cycle=100)[0]
        notice = AlertEngine.render_notice(t)
        assert "FIRING" in notice and "a" in notice and "\n" not in notice


class TestSlo:
    def test_burn_rate_accounting(self):
        # target 0.9 over 1000 cycles -> budget 0.1; alternating good/bad
        # windows of 250 cycles burn 50% of the budget -> burn rate 5.0
        engine = AlertEngine(
            parse_rules(
                "slo lat\n"
                "    expr: latency_p99 <= 100\n"
                "    target: 0.9\n"
                "    window: 1000\n"
                "    burn: 6.0\n"
            )
        )
        for i in range(8):
            bad = i % 2 == 1
            engine.observe_sample(
                {"latency_p99": 200 if bad else 50},
                cycle=i * 250,
                window=250,
            )
        status = engine.slo_status()[0]
        assert status["window_cycles_seen"] == 1000
        assert status["compliance"] == pytest.approx(0.5)
        assert status["burn_rate"] == pytest.approx(5.0)
        assert status["healthy"] is True  # 5.0 <= burn threshold 6.0
        assert engine.firing() == []

    def test_burn_alert_follows_lifecycle(self):
        engine = AlertEngine(
            parse_rules(
                "slo lat\n"
                "    expr: latency_p99 <= 100\n"
                "    target: 0.9\n"
                "    window: 1000\n"
            )
        )
        # all-bad windows: bad_fraction 1.0 / budget 0.1 = burn rate 10
        out = engine.observe_sample({"latency_p99": 500}, cycle=0, window=250)
        assert [t["state"] for t in out] == ["firing"]
        t = out[0]
        assert t["rule"] == "slo:lat"
        assert t["burn_rate"] == pytest.approx(10.0)
        assert t["compliance"] == pytest.approx(0.0)
        # recovery: enough good cycles push the trailing burn back down
        for i in range(1, 5):
            out = engine.observe_sample(
                {"latency_p99": 10}, cycle=i * 250, window=250
            )
        assert any(t["state"] == "resolved" for t in out)
        assert engine.slo_status()[0]["healthy"] is True

    def test_no_data_counts_as_good(self):
        engine = AlertEngine(
            parse_rules(
                "slo lat\n"
                "    expr: latency_p99 <= 100\n"
                "    target: 0.9\n"
                "    window: 1000\n"
            )
        )
        engine.observe_sample({}, cycle=0, window=500)
        assert engine.slo_status()[0]["compliance"] == 1.0
        assert engine.firing() == []


class TestSinks:
    def test_jsonl_log(self, tmp_path):
        path = tmp_path / "alerts" / "log.jsonl"
        engine = AlertEngine(
            parse_rules("alert a\n    expr: in_flight > 10\n"), log=path
        )
        engine.observe_sample({"in_flight": 11}, cycle=100)
        engine.observe_sample({"in_flight": 1}, cycle=200)
        engine.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["state"] for l in lines] == ["firing", "resolved"]
        for line in lines:
            assert line["schema"] == ALERT_SCHEMA
            assert line["rule"] == "a"

    def test_notify_callable_and_stream(self):
        seen = []
        engine = AlertEngine(
            parse_rules("alert a\n    expr: in_flight > 10\n"), notify=seen.append
        )
        engine.observe_sample({"in_flight": 11}, cycle=100)
        assert [t["state"] for t in seen] == ["firing"]

        stream = io.StringIO()
        engine = AlertEngine(
            parse_rules("alert a\n    expr: in_flight > 10\n"), notify=stream
        )
        engine.observe_sample({"in_flight": 11}, cycle=100)
        assert "ALERT FIRING" in stream.getvalue()

    def test_metrics_registry(self):
        registry = MetricsRegistry()
        engine = AlertEngine(
            parse_rules("alert a\n    expr: in_flight > 10\n"),
            registry=registry,
        )
        assert registry.get("ALERTS").read() == 0
        engine.observe_sample({"in_flight": 11}, cycle=100)
        assert registry.get("ALERTS").read() == 1
        engine.observe_sample({"in_flight": 1}, cycle=200)
        assert registry.get("ALERTS").read() == 0
        text = registry.prometheus_text()
        assert "alerts_transitions" in text

    def test_telemetry_events(self):
        sink = TelemetrySink()
        engine = AlertEngine(
            parse_rules("alert a\n    expr: in_flight > 10\n"), sink=sink
        )
        engine.observe_sample({"in_flight": 11}, cycle=100)
        events = sink.events_on("alerts")
        assert [e.name for e in events] == ["alert_firing"]
        assert events[0].args["rule"] == "a"

    def test_document_schema(self):
        engine = AlertEngine(parse_rules(HOT_RULES))
        doc = engine.document()
        assert doc["schema"] == ALERTS_DOC_SCHEMA
        assert doc["rules"] == ["link_hot", "slo:delivery_latency"]
        assert doc["firing"] == [] and doc["pending"] == []
        assert len(doc["slos"]) == 1


class TestReplay:
    FRAMES = [
        frame(0, links={"a.EAST": 0.2}),
        frame(256, links={"a.EAST": 0.95}),
        frame(512, links={"a.EAST": 0.96}),
        frame(768, links={"a.EAST": 0.97}),
        frame(1024, links={"a.EAST": 0.1}),
    ]
    RULES = "alert hot\n    expr: link_util > 0.9\n    for: 500\n"

    def test_check_frames_matches_live_evaluation(self):
        live = AlertEngine(parse_rules(self.RULES))
        for f in self.FRAMES:
            live.observe_frame(f)
        replayed = check_frames(parse_rules(self.RULES), self.FRAMES)
        assert list(live.transitions) == list(replayed.transitions)
        assert live.fired_ever() == replayed.fired_ever() == ["hot{link=a.EAST}"]
        assert live.report() == replayed.report()

    def test_frames_survive_jsonl_round_trip(self, tmp_path):
        sink = TelemetrySink()
        sink.track("live", process="sim")
        for f in self.FRAMES:
            sink.instant("live", "frame", f["cycle"], frame=f)
        path = tmp_path / "trace.jsonl"
        write_jsonl(sink, path)
        restored = frames_from_trace(load_jsonl(path))
        assert restored == self.FRAMES

    def test_check_records_steps_one_per_record(self):
        records = [
            {"status": "ok", "metrics": {"latency_mean": 50.0}},
            {"status": "ok", "metrics": {"latency_mean": 220.0}},
            {"status": "ok", "metrics": {"latency_mean": 230.0}},
            {"status": "ok", "metrics": {"latency_mean": 240.0}},
            {"status": "failed", "metrics": {}},
        ]
        rules = parse_rules(
            "alert slow\n"
            "    expr: latency_mean > 200\n"
            "    for: 2\n"
            "alert failed\n"
            '    expr: status != "ok"\n'
        )
        engine = check_records(rules, records)
        assert engine.fired_ever() == ["slow", "failed"]
        steps = [(t["rule"], t["state"], t["cycle"]) for t in engine.transitions]
        assert ("slow", "pending", 1) in steps
        assert ("slow", "firing", 3) in steps  # held for 2 record steps
        assert ("failed", "firing", 4) in steps


def launch_alerted(rules_text=HOT_RULES, *, strict=False, **engine_kwargs):
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    session.live_stream(stride=256)
    engine = session.alert_engine(rules_text, **engine_kwargs)
    return session, engine


class TestLiveIntegration:
    def test_full_lifecycle_on_real_run(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        session, engine = launch_alerted(log=log)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        engine.close()
        states = [
            (t["rule"], t["state"]) for t in engine.transitions
        ]
        assert ("link_hot", "pending") in states
        assert ("link_hot", "firing") in states
        assert ("link_hot", "resolved") in states
        assert engine.fired_ever()
        # the JSONL log carries the same lifecycle
        logged = [json.loads(l) for l in log.read_text().splitlines()]
        assert [(t["rule"], t["state"]) for t in logged] == states
        report = engine.report()
        assert "FIRED" in report and "slo delivery_latency" in report

    def test_alerts_endpoint_shows_lifecycle(self):
        session, engine = launch_alerted()
        server = session.serve_telemetry()
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        session.live.force()
        with urllib.request.urlopen(server.address + "/alerts") as resp:
            assert resp.headers["Content-Type"] == "application/json"
            doc = json.loads(resp.read())
        server.close()
        assert doc["schema"] == ALERTS_DOC_SCHEMA
        assert doc["rules"] == ["link_hot", "slo:delivery_latency"]
        states = {(t["rule"], t["state"]) for t in doc["transitions"]}
        assert ("link_hot", "firing") in states
        assert ("link_hot", "resolved") in states
        assert doc["slos"][0]["healthy"] is True

    def test_top_banner_renders_alert_states(self):
        engine = AlertEngine(parse_rules(HOT_RULES))
        # hold a hot link past the for-duration so the series fires
        engine.observe_frame(frame(0, links={"router00.EAST": 0.99}))
        engine.observe_frame(frame(512, links={"router00.EAST": 0.99}))
        shown = frame(1024, links={"router00.EAST": 0.99})
        text = MeshTop(color=False).attach_alerts(engine).render(shown)
        assert "ALERT firing   link_hot{link=router00.EAST}" in text
        colour = MeshTop(color=True).attach_alerts(engine).render(shown)
        assert "\x1b[31m" in colour  # firing banner is red

    def test_top_banner_quiet_when_nothing_firing(self):
        engine = AlertEngine(
            parse_rules("alert never\n    expr: in_flight > 99999\n")
        )
        engine.observe_frame(frame(0, links={"a.EAST": 0.5}))
        text = MeshTop(color=False).attach_alerts(engine).render(frame(0))
        assert "alerts: none firing (1 rule(s))" in text

    def test_live_and_replayed_verdicts_identical(self, tmp_path):
        """Acceptance: `multinoc alerts check` over the stored trace of
        a run reports exactly what the live engine reported."""
        from repro.telemetry import TelemetrySink

        sink = TelemetrySink()
        session = MultiNoCPlatform.standard().launch(telemetry=sink)
        live = session.live_stream(stride=256)
        live.mirror_to(sink)
        engine = session.alert_engine(HOT_RULES)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        live.force()
        session.system.flush_telemetry()
        path = tmp_path / "trace.jsonl"
        write_jsonl(sink, path)

        replayed = check_frames(
            parse_rules(HOT_RULES), frames_from_trace(load_jsonl(path))
        )
        assert list(replayed.transitions) == list(engine.transitions)
        assert replayed.report() == engine.report()
        assert replayed.slo_status() == engine.slo_status()


class TestServerAlerts:
    def test_alerts_404_without_engine(self):
        import urllib.error

        session = MultiNoCPlatform.standard().launch()
        session.live_stream(stride=256)
        server = session.serve_telemetry()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.address + "/alerts")
        assert excinfo.value.code == 404
        assert excinfo.value.headers["Content-Type"] == "application/json"
        assert "no alert engine" in json.loads(excinfo.value.read())["error"]
        server.close()


class TestCliAlerts:
    @pytest.fixture
    def rules_file(self, tmp_path):
        path = tmp_path / "rules.alerts"
        path.write_text(HOT_RULES)
        return path

    def test_lint_ok(self, rules_file, capsys):
        assert main(["alerts", "lint", str(rules_file), "-v"]) == 0
        out = capsys.readouterr().out
        assert "OK (1 alert(s), 1 slo(s))" in out
        assert "link_util" in out  # -v field reference

    def test_lint_verbose_lists_exactly_the_field_table(
        self, rules_file, capsys
    ):
        assert main(["alerts", "lint", str(rules_file), "-v"]) == 0
        out = capsys.readouterr().out
        table = out.split("fields:\n", 1)[1]
        listed = [line.split()[0] for line in table.splitlines()]
        assert listed == list(FRAME_FIELDS)
        assert "host_rss_mb" in listed and "host_eval_share" in listed

    def test_lint_rejects_bad_rules(self, tmp_path, capsys):
        path = tmp_path / "bad.alerts"
        path.write_text("alert a\n    for: 5\n")
        assert main(["alerts", "lint", str(path)]) == 2
        assert "has no expr" in capsys.readouterr().err

    def test_check_needs_exactly_one_source(self, rules_file, capsys):
        assert main(["alerts", "check", str(rules_file)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_check_trace_without_frames_errors(self, rules_file, tmp_path, capsys):
        sink = TelemetrySink()
        sink.instant("other", "event", 0)
        path = tmp_path / "bare.jsonl"
        write_jsonl(sink, path)
        assert (
            main(["alerts", "check", str(rules_file), "--trace", str(path)])
            == 2
        )
        assert "no mirrored live frames" in capsys.readouterr().err

    def test_check_registry_gate(self, tmp_path, capsys):
        from repro.telemetry.registry import RunRegistry

        registry = RunRegistry(tmp_path / "reg")
        for latency in (50.0, 52.0, 49.0):
            registry.record(
                kind="bench",
                metrics={"latency_mean": latency},
                git_rev=None,
            )
        rules = tmp_path / "gate.alerts"
        rules.write_text(
            "alert slow\n    expr: latency_mean > 200\n"
            'alert failed\n    expr: status != "ok"\n'
        )
        assert (
            main(
                ["alerts", "check", str(rules), "--runs-dir", str(tmp_path / "reg")]
            )
            == 0
        )
        assert "never pending" in capsys.readouterr().out
        # an injected regression flips the gate
        registry.record(
            kind="bench", metrics={"latency_mean": 500.0}, git_rev=None
        )
        assert (
            main(
                ["alerts", "check", str(rules), "--runs-dir", str(tmp_path / "reg")]
            )
            == 1
        )
        assert "FIRED" in capsys.readouterr().out

    def test_system_alerts_end_to_end(self, rules_file, tmp_path, capsys):
        asm = tmp_path / "p.asm"
        asm.write_text(PRINTF_LOOP)
        trace = tmp_path / "trace.jsonl"
        log = tmp_path / "alerts.jsonl"
        assert (
            main(
                [
                    "system",
                    str(asm),
                    "--alerts",
                    str(rules_file),
                    "--alert-log",
                    str(log),
                    "--trace-jsonl",
                    str(trace),
                    "--live-stride",
                    "256",
                    "--no-record",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "FIRED" in captured.out
        assert "ALERT FIRING" in captured.err
        live_report = [
            l for l in captured.out.splitlines()
            if l.startswith("  ") and ("FIRED" in l or "pending" in l or "slo" in l)
        ]
        assert log.exists() and trace.exists()

        # acceptance: the replayed verdicts match the live report
        assert (
            main(["alerts", "check", str(rules_file), "--trace", str(trace)])
            == 1
        )
        check_out = capsys.readouterr().out
        for line in live_report:
            assert line in check_out

    def test_system_bad_rules_exit_2(self, tmp_path, capsys):
        asm = tmp_path / "p.asm"
        asm.write_text(PRINTF_LOOP)
        bad = tmp_path / "bad.alerts"
        bad.write_text("nonsense\n")
        assert main(["system", str(asm), "--alerts", str(bad)]) == 2


class TestEquivalence:
    @pytest.mark.parametrize("strict", [False, True])
    def test_alerted_run_is_bit_identical(self, strict):
        """A live stream with a firing rule must not perturb the printf loop's
        run in either kernel mode: the oracle's whole digest matches."""
        assert_matches_lockstep(
            Draw(PRINTF_BOARD, (strict,), frozenset({"alerts"}))
        )

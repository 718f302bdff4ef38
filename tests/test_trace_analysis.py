"""Post-mortem trace analytics: cycle-exact critical paths, congestion
attribution, R8 profiles/flame graphs, JSONL fidelity, diffing, CLI."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MultiNoCPlatform
from repro.cli import main as cli_main
from repro.noc import HermesNetwork
from repro.noc.routing import Port
from repro.telemetry import (
    TelemetrySink,
    TraceError,
    analyze_trace,
    diff_traces,
    load_jsonl,
    write_jsonl,
)

#: a program with a real call tree, so PC samples fold into stacks
CALL_PROGRAM = """
main:   CLR  R0
        LDI  R2, 0xFFFF
        JSRD emit
        JSRD emit
        HALT
emit:   LDI  R1, 7
        ST   R1, R2, R0
        RTS
"""


def _contended_run():
    """2x2 NoC with two flows colliding on router10's NORTH output."""
    sink = TelemetrySink()
    net = HermesNetwork(2, 2, telemetry=sink)
    sim = net.make_simulator()
    sim.reset()
    for i in range(3):
        net.send((0, 0), (1, 1), [10 + i, 20, 30])
        net.send((1, 0), (1, 1), [40 + i, 50])
    net.send((0, 1), (0, 0), [7])
    net.run_to_drain(sim)
    return sink, net


def _contended_and_alone():
    """Analyses of the contended run and of its 0,0>1,1 flow alone."""
    base_sink = TelemetrySink()
    net = HermesNetwork(2, 2, telemetry=base_sink)
    sim = net.make_simulator()
    sim.reset()
    for i in range(3):
        net.send((0, 0), (1, 1), [10 + i, 20, 30])
    net.run_to_drain(sim)
    return analyze_trace(_contended_run()[0]), analyze_trace(base_sink)


#: ``diff_traces(contended, alone)`` regressions, ``(name, base, cur)``
CONTENTION_ROWS = [
    ("flow 0,0>1,1 blocked", 0.0, 24.0),
    ("flow 0,0>1,1 latency_max", 44.0, 52.0),
    ("flow 0,0>1,1 latency_mean", 125 / 3, 149 / 3),
    ("flow 0,1>0,0 latency_max", 0.0, 23.0),
    ("flow 0,1>0,0 latency_mean", 0.0, 23.0),
    ("flow 1,0>1,1 blocked", 0.0, 32.0),
    ("flow 1,0>1,1 latency_max", 0.0, 45.0),
    ("flow 1,0>1,1 latency_mean", 0.0, 113 / 3),
    ("link router10>NORTH blocked_cycles", 0.0, 56.0),
]


class TestCriticalPaths:
    @pytest.fixture(scope="class")
    def run(self):
        sink, net = _contended_run()
        return sink, net, analyze_trace(sink)

    def test_all_packets_reconstructed(self, run):
        _, net, analysis = run
        assert len(analysis.packets) == net.stats.packets_injected == 7
        assert len(analysis.delivered()) == 7
        assert analysis.unresolved_hops == 0

    def test_decomposition_is_cycle_exact(self, run):
        """Every packet's component sum equals its measured latency —
        exactly, not approximately (the tentpole acceptance criterion)."""
        _, net, analysis = run
        for packet in analysis.packets:
            d = packet.decomposition()
            assert sum(d.values()) == packet.latency
            for hop in packet.hops:
                assert hop.queueing >= 0
                assert hop.routing >= 0
                assert hop.blocked >= 0
                assert hop.serialization >= 0
        # ...and the analyzer's latencies are the stats' latencies
        assert sorted(p.latency for p in analysis.packets) == sorted(
            net.stats.latencies
        )

    def test_hops_follow_xy_route(self, run):
        _, _, analysis = run
        packet = next(p for p in analysis.packets if p.flow == "0,0>1,1")
        assert [h.router for h in packet.hops] == [
            "router00", "router10", "router11",
        ]
        assert [h.in_port for h in packet.hops] == ["LOCAL", "WEST", "SOUTH"]
        assert [h.out_port for h in packet.hops] == ["EAST", "NORTH", "LOCAL"]

    def test_routing_component_matches_service_time(self, run):
        """Each uncontended hop spends exactly R-1 cycles in routing."""
        _, _, analysis = run
        for packet in analysis.packets:
            for hop in packet.hops:
                assert hop.routing == hop.routing_cycles - 1 == 6

    def test_blocked_cycles_attributed_to_interfering_flow(self, run):
        """The two flows colliding on router10>NORTH must blame each
        other — and nobody else (the attribution acceptance criterion)."""
        _, _, analysis = run
        flows = {"0,0>1,1", "1,0>1,1"}
        assert analysis.contention, "collision produced no attribution"
        for (victim, blocker), cycles in analysis.contention.items():
            assert victim in flows and blocker in flows
            assert victim != blocker
            assert cycles >= 1
        # at least one direction actually lost cycles to the other
        blocked_total = sum(
            p.decomposition()["blocked"] for p in analysis.packets
        )
        assert blocked_total >= 1
        # the uncontended flow is never implicated
        assert all(
            "0,1>0,0" not in key for key in analysis.contention
        )

    def test_hotspot_report_ranks_contested_link_first(self, run):
        _, _, analysis = run
        top = analysis.hotspots(top=1)[0]
        assert top.name == "router10>NORTH"
        assert top.blocked_cycles >= 1
        assert top.packets == 6

    def test_blocked_by_names_the_owner(self, run):
        _, _, analysis = run
        blocked_hops = [
            h
            for p in analysis.packets
            for h in p.hops
            if h.blocked > 0 and h.router == "router10"
        ]
        assert blocked_hops
        for hop in blocked_hops:
            assert hop.blocked_by, "blocked hop with no attributed owner"

    def test_report_renders(self, run):
        _, _, analysis = run
        text = analysis.report()
        assert "hotspot links" in text
        assert "router10>NORTH" in text
        assert "contention" in text

    def test_to_dict_is_json_serialisable(self, run):
        _, _, analysis = run
        doc = json.loads(json.dumps(analysis.to_dict()))
        assert doc["schema"] == "multinoc-analysis/1"
        assert len(doc["packets"]) == 7


class TestJsonlFidelity:
    def test_reloaded_trace_analyzes_identically(self, tmp_path):
        """The satellite: analysis of a reloaded --trace-jsonl file must
        equal analysis of the live in-memory sink, bit for bit."""
        sink, _ = _contended_run()
        path = write_jsonl(sink, tmp_path / "run.jsonl")
        live = analyze_trace(sink)
        reloaded = analyze_trace(load_jsonl(path))
        assert reloaded.to_dict() == live.to_dict()
        assert reloaded.report() == live.report()


class TestDiffing:
    def test_self_diff_is_clean(self):
        sink, _ = _contended_run()
        analysis = analyze_trace(sink)
        diff = diff_traces(analysis, analysis)
        assert diff.ok
        assert diff.regressions == [] and diff.improvements == []

    def test_contention_regression_detected(self):
        """Baseline: the 0,0>1,1 flow alone.  Current: the same flow with
        an interfering flow added.  The diff must flag the slowdown."""
        current, baseline = _contended_and_alone()
        diff = diff_traces(current, baseline)
        assert not diff.ok
        flow_regressions = [
            row for row in diff.regressions
            if row[0].startswith("flow 0,0>1,1 ")
        ]
        assert flow_regressions, diff.report()
        assert any("REGRESSED" in line for line in diff.report().splitlines())

    def test_contention_verdicts_are_pinned(self):
        """The exact regression and improvement rows, both directions."""
        current, baseline = _contended_and_alone()
        forward = diff_traces(current, baseline)
        assert forward.regressions == CONTENTION_ROWS
        assert forward.improvements == []
        backward = diff_traces(baseline, current)
        assert backward.regressions == []
        assert backward.improvements == [
            (name, cur, base) for name, base, cur in CONTENTION_ROWS
        ]
        for analysis in (current, baseline):
            self_diff = diff_traces(analysis, analysis)
            assert self_diff.regressions == self_diff.improvements == []
        lines = forward.report().splitlines()
        assert "  REGRESSED flow 0,0>1,1 latency_max: 44 -> 52 (+18.2%)" in lines
        assert (
            "  REGRESSED link router10>NORTH blocked_cycles: 0 -> 56 (new)"
            in lines
        )

    def test_thresholds_suppress_noise(self):
        sink, _ = _contended_run()
        analysis = analyze_trace(sink)
        # absurd thresholds: nothing can regress against itself + slack
        diff = diff_traces(
            analysis, analysis, threshold_pct=1000, threshold_cycles=1e9
        )
        assert diff.ok


class TestCpuProfiles:
    @pytest.fixture(scope="class")
    def session(self):
        session = MultiNoCPlatform.standard().launch(telemetry=True)
        session.host.sync()
        program = session.run(1, CALL_PROGRAM)
        return session, program

    def test_samples_resolve_to_real_symbols(self, session):
        session, _ = session
        analysis = session.analyze()
        profile = analysis.profiles["proc1.r8"]
        functions = profile.functions()
        assert profile.total_cycles > 0
        assert "emit" in functions and functions["emit"] > 0
        assert "main" in functions and functions["main"] > 0
        # every sampled cycle resolved against the symbol table: the
        # program starts at a label, so no raw-PC fallback frames remain
        assert not any(name.startswith("0x") for name in functions)

    def test_folded_stacks_format_and_call_tree(self, session):
        session, _ = session
        analysis = session.analyze()
        lines = analysis.profiles["proc1.r8"].folded_stacks()
        assert lines
        folded = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")
        for line in lines:
            assert folded.match(line), f"bad folded-stack line: {line!r}"
        # emit's cycles sit *under* main in the call tree
        assert any(
            line.startswith("proc1.r8;main;emit ") for line in lines
        ), lines

    def test_annotated_listing_charges_hot_lines(self, session):
        session, program = session
        analysis = session.analyze()
        profile = analysis.profiles["proc1.r8"]
        lines = profile.annotate(program.obj)
        assert len(lines) == program.obj.size_words
        charged = [l for l in lines if "%" in l]
        assert charged, "no instruction charged any cycles"
        assert any("RTS" in l for l in charged)

    def test_pc_sampling_does_not_change_results(self, session):
        session, _ = session
        # emit runs twice, each printing 7 — sampling must not perturb it
        assert session.host.monitor(1).printf_values == [7, 7]

    def test_full_system_jsonl_fidelity(self, session, tmp_path):
        """Symbols and PC samples travel inside the trace file."""
        session, _ = session
        live = session.analyze()  # flushes pending samples into the sink
        path = write_jsonl(session.telemetry, tmp_path / "sys.jsonl")
        reloaded = analyze_trace(load_jsonl(path))
        assert reloaded.to_dict() == live.to_dict()


class TestAnalyzeCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        sink, _ = _contended_run()
        return str(write_jsonl(sink, tmp_path / "run.jsonl"))

    def test_plain_report(self, trace_path, capsys):
        assert cli_main(["analyze", trace_path]) == 0
        out = capsys.readouterr().out
        assert "packets: 7 delivered" in out
        assert "router10>NORTH" in out

    def test_json_and_flamegraph_outputs(self, trace_path, tmp_path, capsys):
        out_json = tmp_path / "analysis.json"
        out_folded = tmp_path / "profile.folded"
        code = cli_main(
            [
                "analyze", trace_path,
                "--json", str(out_json),
                "--flamegraph", str(out_folded),
            ]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "multinoc-analysis/1"
        assert out_folded.exists()

    def test_baseline_self_diff_passes(self, trace_path, capsys):
        code = cli_main(["analyze", trace_path, "--baseline", trace_path])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    @pytest.mark.parametrize("as_baseline", [False, True])
    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda text: text[: text.index("}", 200)], "Expecting"),
            (
                lambda text: text.replace('"track": ', '"trak": ', 1),
                "'track' must be a string",
            ),
            (
                lambda text: text.replace('"flow": ', '"flow": 7, "was": ', 1),
                "damaged args: TypeError: 7 is not a string",
            ),
        ],
    )
    def test_damaged_trace_is_one_line_error(
        self, trace_path, tmp_path, capsys, damage, reason, as_baseline
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(damage(Path(trace_path).read_text()))
        args = ["analyze", trace_path, "--baseline", str(bad), "--no-record"]
        if not as_baseline:
            args[1], args[3] = str(bad), trace_path
        assert cli_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:") and reason in err
        assert err.count("\n") == 1

    def test_baseline_regression_fails(self, trace_path, tmp_path, capsys):
        base_sink = TelemetrySink()
        net = HermesNetwork(2, 2, telemetry=base_sink)
        sim = net.make_simulator()
        sim.reset()
        for i in range(3):
            net.send((0, 0), (1, 1), [10 + i, 20, 30])
        net.run_to_drain(sim)
        base_path = str(write_jsonl(base_sink, tmp_path / "base.jsonl"))
        code = cli_main(["analyze", trace_path, "--baseline", base_path])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# A damaged JSONL trace fails with TraceError and nothing else
# ---------------------------------------------------------------------------

_VALID_TRACE = None


def _valid_trace() -> bytes:
    """The contended run's trace, with a profiled core's PC samples and
    symbol table appended: every event kind the analysis reads."""
    global _VALID_TRACE
    if _VALID_TRACE is None:
        sink, _ = _contended_run()
        session = MultiNoCPlatform.standard().launch(telemetry=True)
        session.host.sync()
        session.run(1, CALL_PROGRAM)
        session.system.flush_telemetry()
        for event in session.telemetry.events:
            if event.name in ("pcsample", "symbols"):
                sink.track(event.track, process="cpu")
                sink.emit(event)
        with tempfile.TemporaryDirectory() as tmp:
            _VALID_TRACE = write_jsonl(sink, Path(tmp) / "t.jsonl").read_bytes()
    return _VALID_TRACE


#: a value of every JSON type, to retype a key with
_JSON_VALUES = [None, True, 0, 1.5, "x", [], {}, [1, "a"], {"k": 1}]


@st.composite
def damaged_traces(draw):
    data = _valid_trace()
    kind = draw(
        st.sampled_from(
            ["truncate", "flip", "delete", "retype", "delete arg", "retype arg"]
        )
    )
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(out) - 1))
            out[i] = draw(st.integers(0, 255))
        return bytes(out)
    lines = data.decode().splitlines()
    if kind.endswith(" arg"):
        # a record that stays well formed, with one of its args damaged
        with_args = [
            i for i, line in enumerate(lines) if json.loads(line).get("args")
        ]
        i = draw(st.sampled_from(with_args))
        record = json.loads(lines[i])
        target = record["args"]
    else:
        i = draw(st.integers(0, len(lines) - 1))
        record = target = json.loads(lines[i])
    key = draw(st.sampled_from(sorted(target)))
    if kind.startswith("delete"):
        del target[key]
    else:
        target[key] = draw(st.sampled_from(_JSON_VALUES))
    lines[i] = json.dumps(record)
    return "\n".join(lines).encode()


@settings(max_examples=300, deadline=None)
@given(damaged_traces())
def test_damaged_trace_raises_only_trace_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.jsonl"
        path.write_bytes(data)
        try:
            sink = load_jsonl(path)
        except TraceError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))
            return
        try:
            analysis = analyze_trace(sink)
        except TraceError as exc:
            assert re.match(r"event \d+ \(", str(exc))
            return
        # what `multinoc analyze` does with an analysis
        analysis.report()
        json.dumps(analysis.to_dict())
        analysis.folded_stacks()
        diff_traces(analysis, analysis)

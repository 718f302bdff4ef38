"""Command-line toolchain: assembler, disassembler, simulators, compiler.

Run as ``python -m repro.cli <command>``::

    asm FILE            assemble R8 source to an object file
    dis FILE            disassemble an object file
    run FILE            execute on the stand-alone R8 Simulator
    debug FILE          run a debugger script against a program
    cc FILE             compile R8C to assembly or object code
    system FILE         load and run on the full MultiNoC platform
                        (or --workload edge-detection; --hostperf adds
                        the sampling host profiler)
    top                live terminal dashboard for a served simulation
    analyze TRACE       post-mortem analysis of a JSONL trace
    runs ...            cross-run registry: list/show/diff/trend/gc
    alerts ...          alert/SLO rules: lint, post-hoc check (CI gate)
    prototype           print the virtual FPGA implementation report

Every command reads/writes the same text object format the Serial
software uses, so the pieces compose like the paper's Figure 8 flow.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .r8.assembler import ObjectCode, assemble
from .r8.debugger import Debugger
from .r8.disassembler import disassemble
from .r8.simulator import R8Simulator


def _load_program(path: str) -> ObjectCode:
    """Object file or assembly source, by extension."""
    text = Path(path).read_text()
    if path.endswith((".obj", ".hex")):
        return ObjectCode.from_text(text)
    return assemble(text, filename=path)


def cmd_asm(args) -> int:
    obj = assemble(Path(args.file).read_text(), filename=args.file)
    if args.listing:
        for line in obj.listing:
            print(line)
    out = args.output or str(Path(args.file).with_suffix(".obj"))
    Path(out).write_text(obj.to_text())
    print(f"{obj.size_words} words -> {out}")
    return 0


def cmd_dis(args) -> int:
    obj = _load_program(args.file)
    for origin, words in obj.segments:
        for line in disassemble(words, base=origin):
            print(line)
    return 0


def _parse_scanf(text) -> list:
    """``--scanf 1,0x1F`` -> ``[1, 31]``; ValueError on a malformed answer."""
    if not text:
        return []
    try:
        return [int(v, 0) for v in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--scanf expects comma-separated integers, got {text!r}"
        ) from None


def cmd_run(args) -> int:
    from .r8.simulator import SimulatorError

    try:
        values = _parse_scanf(args.scanf)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sim = R8Simulator(on_scanf=(lambda: values.pop(0)) if values else None)
    sim.load(_load_program(args.file))
    sim.activate()
    try:
        sim.run(max_instructions=args.max_instructions)
    except SimulatorError as exc:
        for value in sim.printed:
            print(f"printf: {value} ({value:#06x})")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for value in sim.printed:
        print(f"printf: {value} ({value:#06x})")
    print(
        f"halted after {sim.instructions} instructions, "
        f"{sim.cycles} cycles, CPI {sim.cpi():.2f}"
    )
    return 0


def cmd_debug(args) -> int:
    script = (
        sys.stdin.read() if args.script == "-" else Path(args.script).read_text()
    )
    if args.system:
        return _debug_system(args, script)
    if not args.file:
        print("error: debug needs a program file (or --system)", file=sys.stderr)
        return 2
    dbg = Debugger()
    dbg.load_object(_load_program(args.file))
    for line in script.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        print(f"(r8db) {line}")
        print(dbg.execute(line))
    return 0


def _debug_system(args, script: str) -> int:
    """``debug --system``: a scripted full-system debugger session."""
    from .core import MultiNoCPlatform
    from .debug import SystemDebugger
    from .r8.debugger import DebuggerError
    from .telemetry import TelemetrySink

    session = MultiNoCPlatform.standard().launch(
        telemetry=TelemetrySink(), strict_lockstep=args.no_idle_skip
    )
    if args.file:
        session.host.sync()
        obj = _load_program(args.file)
        addr = session.processor_address(args.proc)
        session.host.load_program(addr, obj)
        session.host.activate(addr)
    dbg = SystemDebugger(
        session, checkpoint_interval=args.checkpoint_interval
    )
    status = 0
    for line in script.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        print(f"(mndb) {line}")
        try:
            print(dbg.execute(line))
        except DebuggerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            break
    if args.checkpoint:
        from .sim import save_checkpoint

        path = save_checkpoint(
            session.sim,
            args.checkpoint,
            meta={"mesh": list(session.system.config.mesh)},
            topology=session.system.topology,
        )
        print(f"checkpoint -> {path}")
    return status


def cmd_cc(args) -> int:
    from .cc import compile_source, compile_to_asm

    source = Path(args.file).read_text()
    if args.emit_asm:
        print(compile_to_asm(source))
        return 0
    obj = compile_source(source)
    out = args.output or str(Path(args.file).with_suffix(".obj"))
    Path(out).write_text(obj.to_text())
    print(f"{obj.size_words} words -> {out}")
    return 0


def cmd_system(args) -> int:
    from .core import MultiNoCPlatform
    from .telemetry.alerts import RuleError, load_rules

    if (args.file is None) == (args.workload is None):
        print(
            "error: system needs exactly one of FILE or --workload",
            file=sys.stderr,
        )
        return 2
    try:
        scanf = _parse_scanf(args.scanf)
        rules = load_rules(args.alerts) if args.alerts else None
        # the paper's standard 2x2 instance unless --topology/--procs
        platform = (
            MultiNoCPlatform.standard()
            if args.topology is None and not args.procs
            else MultiNoCPlatform(
                n_processors=args.procs or 2, topology=args.topology or (2, 2)
            )
        )
    except (OSError, ValueError, RuleError) as exc:
        # ValueError includes TopologyError at spec parse time
        print(f"error: {exc}", file=sys.stderr)
        return 2
    telemetry = None
    if args.trace or args.trace_jsonl or args.metrics:
        from .telemetry import TelemetrySink

        telemetry = TelemetrySink()
    session = platform.launch(
        telemetry=telemetry, strict_lockstep=args.no_idle_skip
    )
    vcd = server = series = None
    try:
        if args.hostperf or args.hostperf_json or args.flamegraph:
            session.profile_host()
        if args.vcd:
            from .sim import VcdWriter

            vcd = VcdWriter([session.system.rxd, session.system.txd])
            session.sim.add_watcher(vcd.sample)
        if args.monitor or args.health_report:
            session.monitor_health(invariants=True)
        wants_live = args.top or args.serve is not None or rules is not None
        if wants_live or args.health_report:
            session.live_stream(stride=args.live_stride)
        if args.health_report:
            from .telemetry.top import FrameSeries

            # the report's time series: a fold of the live frames
            series = FrameSeries(args.live_stride)
            session.live.subscribe(series.observe)
        if rules is not None:
            session.alert_engine(
                rules,
                log=args.alert_log,
                notify=sys.stderr,
                sink=telemetry,
                registry=session.system.stats.registry,
            )
            if telemetry is not None:
                # mirror frames into the event log so `multinoc alerts
                # check RULES --trace` replays the exact frames this run
                # was alerted on
                session.live.mirror_to(telemetry)
        if args.serve is not None:
            server = session.serve_telemetry(port=args.serve)
            print(
                f"telemetry server -> {server.address}"
                "  (/metrics /frame /frames"
                + (" /alerts" if rules is not None else "")
                + ")"
            )
        if args.top:
            from .telemetry import MeshTop

            top = MeshTop(color=False if args.no_color else None)
            top.attach(session.live)
            if session.alerts is not None:
                top.attach_alerts(session.alerts)
        if args.crash_dir:
            # after live wiring so the recorder can mirror frames
            session.flight_recorder(args.crash_dir)
        _drive_system(session, args, scanf)
    except Exception as exc:
        return _finish_system(
            session, args, exc, vcd=vcd, server=server, series=series
        )
    return _finish_system(
        session, args, None, vcd=vcd, server=server, series=series
    )


def _drive_system(session, args, scanf) -> None:
    """The run itself: the built-in workload, or FILE on ``--proc``."""
    if args.workload == "edge-detection":
        from .experiments import edge_detection

        edge_detection(session)
    else:
        session.host.sync()
        addr = session.processor_address(args.proc)
        if scanf:
            it = iter(scanf)
            session.host.set_scanf_handler(args.proc, lambda: next(it))
        session.host.load_program(addr, _load_program(args.file))
        session.host.activate(addr)
        session.sim.run_until(
            lambda: session.system.processors[args.proc].cpu.halted,
            max_cycles=args.max_cycles,
        )
        session.sim.step(6000)
    if session.live is not None:
        # one final off-stride frame so dashboards and post-run scrapes
        # see the end-of-run state
        session.live.force()


def _finish_system(session, args, exc, *, vcd, server, series) -> int:
    """The one teardown of ``multinoc system``, for success and failure.

    Stops the profiler, reports the outcome (or the failure, with a
    crash bundle under ``--crash-dir``), flushes every export — a failed
    run's partial trace and profile are often the most valuable
    artifacts it leaves — closes the alert log and the telemetry
    server, and records the run.  Returns the exit code.
    """
    status = 0 if exc is None else 1
    meta = (
        {"workload": args.workload}
        if args.workload
        else {"program": str(args.file), "proc": args.proc}
    )
    if session.hostperf is not None:
        session.hostperf.stop()
    if exc is None:
        _print_system_summary(session, args, series)
    else:
        _report_system_failure(session, exc, meta)
    if session.telemetry is not None:
        # flush deferred telemetry (CPU PC samples) before any export
        session.system.flush_telemetry()
    if _flush_system_exports(session, args, vcd, series) != 0:
        status = 1
    if session.hostperf is not None:
        print(session.hostperf.report())
    if session.alerts is not None:
        print(session.alerts.report())
        if args.alert_log:
            print(f"alert log -> {args.alert_log}")
        session.alerts.close()
    _record_run(
        args,
        session.record_run,
        registry=args.runs_dir,
        kind="system",
        status=status,
        artifacts={
            "trace": args.trace,
            "trace_jsonl": args.trace_jsonl,
            "vcd": args.vcd,
            "health_report": args.health_report,
            "hostperf": args.hostperf_json,
            "flamegraph": args.flamegraph,
        },
        meta=meta,
    )
    if server is not None:
        if args.linger:
            import time

            print(f"lingering {args.linger:g}s for scrapes (Ctrl-C to stop)")
            try:
                time.sleep(args.linger)
            except KeyboardInterrupt:
                pass
        server.close()
    return status


def _print_system_summary(session, args, series) -> None:
    """A finished run's stdout: I/O transcript, final cycle, reports."""
    if args.workload:
        print(f"{args.workload}: output matches the reference")
    else:
        print(session.host.monitor(args.proc).transcript() or "(no I/O)")
    print(
        f"{'finished' if args.workload else 'halted'} at cycle "
        f"{session.sim.cycle} "
        f"({session.sim.elapsed_seconds() * 1e3:.2f} ms at 25 MHz)"
    )
    if args.stats:
        _print_system_stats(session)
    if args.metrics:
        print(session.system.stats.registry.prometheus_text(), end="")
    if series is not None:
        print("health timeline:")
        print(series.timeline())
    health = session.health
    if health is not None:
        n = len(health.violations)
        print(f"health: {'OK, no violations' if n == 0 else f'{n} violation(s)'}")


def _report_system_failure(session, exc, meta) -> None:
    """A failed run's stderr: crash bundle, error, health diagnosis."""
    from .telemetry import HealthViolation

    if session.flight is not None:
        bundle = session.flight.record(
            exc,
            sim=session.sim,
            hostperf=session.hostperf,
            health=session.health,
            meta=meta,
        )
        print(f"crash bundle -> {bundle}", file=sys.stderr)
    print(f"error: {exc}", file=sys.stderr)
    if session.health is not None and isinstance(exc, HealthViolation):
        # timeouts already embed describe(); violations carry details,
        # and land in the health report
        print(session.health.describe(), file=sys.stderr)
        session.health.violations.append(exc)


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _flush_system_exports(session, args, vcd, series) -> int:
    """Write every requested export; 1 if a target is unwritable, else 0."""
    import json

    telemetry, hostperf = session.telemetry, session.hostperf
    try:
        if telemetry is not None and args.trace:
            from .telemetry import write_chrome_trace

            path = write_chrome_trace(
                telemetry, args.trace, clock_hz=session.system.config.clock_hz
            )
            print(f"chrome trace ({len(telemetry)} events) -> {path}")
        if telemetry is not None and args.trace_jsonl:
            from .telemetry import write_jsonl

            print(f"event log -> {write_jsonl(telemetry, args.trace_jsonl)}")
        if vcd is not None:
            print(f"serial-line waveform -> {vcd.write(args.vcd)}")
        if session.health is not None and args.health_report:
            sampler = series.as_dict() if series is not None else None
            Path(args.health_report).write_text(
                json.dumps(session.health.report(sampler), indent=2)
            )
            print(f"health report -> {args.health_report}")
        if hostperf is not None and args.hostperf_json:
            Path(args.hostperf_json).write_text(
                json.dumps(hostperf.snapshot(), indent=2) + "\n"
            )
            print(f"hostperf snapshot -> {args.hostperf_json}")
        if hostperf is not None and args.flamegraph:
            lines = hostperf.folded_stacks()
            _write_lines(args.flamegraph, lines)
            print(f"folded stacks ({len(lines)}) -> {args.flamegraph}")
    except OSError as exc:
        print(f"error: cannot write export file: {exc}", file=sys.stderr)
        return 1
    return 0


def _record_run(args, write, *, status: int, artifacts, **fields) -> None:
    """Append the run to the cross-run registry (``multinoc runs ...``).

    *write* is ``session.record_run`` or ``RunRegistry.record``.  On by
    default — the registry is the durable history every later ``runs
    trend`` gate reads — and disabled with ``--no-record``.  Registry
    failures must never fail the run they describe.
    """
    if args.no_record:
        return
    from .telemetry.registry import AUTO

    try:
        record = write(
            status="ok" if status == 0 else "failed",
            exit_code=status,
            artifacts={
                name: str(value) for name, value in artifacts.items() if value
            },
            git_rev=AUTO,
            **fields,
        )
        # stderr: run ids are unique, stdout must stay comparable
        print(f"run record {record['run_id']} -> registry", file=sys.stderr)
    except OSError as exc:
        print(f"warning: could not record run: {exc}", file=sys.stderr)


def _print_system_stats(session) -> None:
    """The --stats report: latency percentiles + mesh utilisation map."""
    stats = session.system.stats
    summary = stats.latency_summary()
    print(
        f"packets: {stats.packets_injected} injected, "
        f"{stats.packets_delivered} delivered, "
        f"{stats.in_flight_count} in flight"
    )
    if summary["count"]:
        print(
            "latency (cycles): "
            f"mean {summary['mean']:.1f}  p50 {summary['p50']:.0f}  "
            f"p90 {summary['p90']:.0f}  p99 {summary['p99']:.0f}  "
            f"max {summary['max']:.0f}"
        )
    else:
        print("latency (cycles): no packets delivered")
    topo = session.system.topology
    label = "mesh" if topo.kind == "mesh" else topo.spec
    print(f"{label} utilisation (top row = highest y):")
    print(
        stats.heatmap(
            topo.width, topo.height, session.sim.cycle,
            ports=topo.router_ports,
        )
    )


def cmd_analyze(args) -> int:
    """Post-mortem analysis of a ``--trace-jsonl`` event log."""
    import json

    from .telemetry import TraceError, analyze_trace, diff_traces, load_jsonl
    from .telemetry.registry import RunRegistry

    try:
        trace = load_jsonl(args.trace)
        baseline = load_jsonl(args.baseline) if args.baseline else None
    except (OSError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analysis = analyze_trace(trace)
    print(analysis.report(top=args.top))
    document = analysis.to_dict()
    status = 0
    meta = {}

    if baseline is not None:
        diff = diff_traces(
            analysis,
            analyze_trace(baseline),
            threshold_pct=args.threshold_pct,
            threshold_cycles=args.threshold_cycles,
        )
        diff.baseline_id, diff.current_id = args.baseline, args.trace
        print()
        print(diff.report())
        document["diff"] = diff.to_dict()
        meta = {"baseline": args.baseline, "diff_ok": diff.ok}
        if not diff.ok:
            status = 1

    try:
        if args.flamegraph:
            lines = analysis.folded_stacks()
            _write_lines(args.flamegraph, lines)
            print(
                f"folded stacks ({len(lines)} frames) -> {args.flamegraph} "
                "(open with flamegraph.pl or speedscope)"
            )
        if args.annotate:
            obj = _load_program(args.annotate)
            for track in sorted(analysis.profiles):
                profile = analysis.profiles[track]
                if not profile.samples:
                    continue
                print(f"annotated listing for {track}:")
                for line in profile.annotate(obj):
                    print(line)
        if args.json:
            Path(args.json).write_text(json.dumps(document, indent=2))
            print(f"analysis -> {args.json}")
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return 1

    delivered = analysis.delivered()
    metrics = {
        "packets": float(len(delivered)),
        "blocked_total": float(
            sum(l.blocked_cycles for l in analysis.links.values())
        ),
    }
    if delivered:
        latencies = sorted(p.latency for p in delivered)
        metrics["latency_mean"] = round(sum(latencies) / len(latencies), 4)
        metrics["latency_max"] = float(latencies[-1])
    _record_run(
        args,
        RunRegistry(args.runs_dir).record,
        kind="analyze",
        status=status,
        artifacts={
            "trace": args.trace,
            "json": args.json,
            "flamegraph": args.flamegraph,
        },
        metrics=metrics,
        meta=meta,
    )
    return status


def cmd_top(args) -> int:
    """Attach the terminal dashboard to a remote telemetry server."""
    from .telemetry.top import MeshTop, watch

    top = MeshTop(color=False if args.no_color else None)
    return watch(
        args.url,
        once=args.once,
        frames=args.frames,
        top=top,
        retries=args.retries,
    )


def cmd_runs(args) -> int:
    """The cross-run observatory: query and gate the run registry."""
    import json

    from .telemetry.registry import RegistryError, RunRegistry
    from .telemetry.trend import compute_trend, diff_records, metric_arrow

    registry = RunRegistry(args.dir)
    try:
        if args.runs_command == "list":
            entries = registry.index()
            if args.limit is not None:
                entries = entries[-args.limit:]
            if args.json:
                print(json.dumps(entries, indent=2))
                return 0
            if not entries:
                print(f"no runs recorded in {registry.root}")
                return 0
            metric = getattr(args, "metric", None)
            metric_col = ""
            if metric:
                title = metric if len(metric) <= 16 else metric[:15] + "…"
                metric_col = f" {title.upper():>18}"
            print(
                f"{'RUN':<34} {'KIND':<8} {'STATUS':<7} "
                f"{'PRESET':<7} {'MACHINE':<13}{metric_col} GIT"
            )
            values: list = []
            for e in entries:
                cell = ""
                if metric:
                    value = registry.load(e["run_id"]).get(
                        "metrics", {}
                    ).get(metric)
                    if value is None:
                        cell = f" {'-':>18}"
                    else:
                        values.append(float(value))
                        arrow = metric_arrow(values)
                        cell = f" {f'{value:g} {arrow}':>18}"
                print(
                    f"{e.get('run_id', '?'):<34} {e.get('kind') or '-':<8} "
                    f"{e.get('status') or '-':<7} "
                    f"{e.get('preset') or '-':<7} "
                    f"{e.get('fingerprint') or '-':<13}{cell} "
                    f"{e.get('git_rev') or '-'}"
                )
            print(f"{len(entries)} run(s) in {registry.root}")
            return 0

        if args.runs_command == "show":
            # verbatim file bytes: `runs show` round-trips bit-identically
            sys.stdout.write(registry.raw(args.run_id))
            return 0

        if args.runs_command == "diff":
            diff = diff_records(
                registry.load(args.current),
                registry.load(args.baseline),
                threshold_pct=args.threshold_pct,
                threshold_abs=args.threshold_abs,
            )
            print(diff.report())
            if args.json:
                Path(args.json).write_text(
                    json.dumps(diff.to_dict(), indent=2)
                )
                print(f"diff -> {args.json}")
            return 0 if diff.ok else 1

        if args.runs_command == "trend":
            metrics = None
            if args.metric:
                metrics = [
                    m for arg in args.metric for m in arg.split(",") if m
                ]
            records = registry.records(kind=args.kind)
            report = compute_trend(
                records,
                metrics=metrics,
                window=args.window,
                threshold_pct=args.threshold_pct,
                threshold_abs=args.threshold_abs,
                sustain=args.sustain,
                allow_cross_machine=args.allow_cross_machine,
            )
            print(report.report())
            if args.json:
                Path(args.json).write_text(
                    json.dumps(report.to_dict(), indent=2)
                )
                print(f"trend -> {args.json}")
            return 0 if report.ok else 1

        if args.runs_command == "gc":
            removed = registry.gc(args.keep)
            print(
                f"removed {len(removed)} record(s), "
                f"kept newest {args.keep} in {registry.root}"
            )
            for run_id in removed:
                print(f"  gc {run_id}")
            return 0
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled runs command {args.runs_command!r}")


def cmd_alerts(args) -> int:
    """Lint alert/SLO rules and replay them over stored artifacts."""
    import json

    from .telemetry.alerts import (
        RuleError,
        check_frames,
        check_records,
        frames_from_trace,
        load_rules,
    )
    from .telemetry.live import FRAME_FIELDS

    try:
        rules = load_rules(args.rules)
    except (OSError, RuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.alerts_command == "lint":
        kinds = f"{len(rules.alerts)} alert(s), {len(rules.slos)} slo(s)"
        print(f"{args.rules}: OK ({kinds})")
        for name, rule in zip(rules.names(), rules.alerts + rules.slos):
            print(f"  {name}: {rule.condition.source}")
        if args.verbose:
            print("fields:")
            for field in FRAME_FIELDS.values():
                label = f" (label: {field.label})" if field.label else ""
                print(f"  {field.name:<18} {field.help}{label}")
        return 0

    if args.alerts_command == "check":
        if (args.trace is None) == (args.runs_dir is None):
            print(
                "error: check needs exactly one of --trace or --runs-dir",
                file=sys.stderr,
            )
            return 2
        engine_kwargs = {"log": args.log} if args.log else {}
        if args.trace:
            from .telemetry import TraceError, load_jsonl

            try:
                frames = frames_from_trace(load_jsonl(args.trace))
            except (OSError, TraceError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not frames:
                print(
                    f"error: {args.trace} has no mirrored live frames; "
                    "produce one with `multinoc system --alerts RULES "
                    "--trace-jsonl FILE` (alerting mirrors frames into "
                    "the event log)",
                    file=sys.stderr,
                )
                return 2
            engine = check_frames(rules, frames, **engine_kwargs)
        else:
            from .telemetry.registry import RunRegistry

            records = RunRegistry(args.runs_dir).records(
                kind=args.kind, limit=args.limit
            )
            if not records:
                print(
                    f"error: no records in registry {args.runs_dir}",
                    file=sys.stderr,
                )
                return 2
            engine = check_records(rules, records, **engine_kwargs)
        print(engine.report())
        if args.json:
            Path(args.json).write_text(
                json.dumps(engine.document(), indent=2)
            )
            print(f"alerts document -> {args.json}")
        engine.close()
        fired = engine.fired_ever()
        burning = [s for s in engine.slo_status() if not s["healthy"]]
        return 1 if fired or burning else 0

    raise AssertionError(f"unhandled alerts command {args.alerts_command!r}")


def cmd_prototype(args) -> int:
    from .fpga import prototype

    print(prototype(anneal_iterations=args.iterations).summary())
    return 0


def _add_record_flags(p) -> None:
    """The run-registry pair shared by ``system`` and ``analyze``."""
    p.add_argument(
        "--no-record",
        action="store_true",
        help="do not append this run to the cross-run registry",
    )
    p.add_argument(
        "--runs-dir",
        metavar="DIR",
        help="registry root for the run record "
        "(default: $MULTINOC_RUNS_DIR or .multinoc/runs)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MultiNoC toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble R8 source")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--listing", action="store_true")
    p.set_defaults(fn=cmd_asm)

    p = sub.add_parser("dis", help="disassemble object code")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dis)

    p = sub.add_parser("run", help="run on the R8 Simulator")
    p.add_argument("file")
    p.add_argument("--scanf", help="comma-separated scanf answers")
    p.add_argument("--max-instructions", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("debug", help="run a debugger script")
    p.add_argument("file", nargs="?", help="program (optional with --system)")
    p.add_argument("--script", required=True, help="script file or - for stdin")
    p.add_argument(
        "--system",
        action="store_true",
        help="debug the full MultiNoC platform instead of a lone R8 core",
    )
    p.add_argument(
        "--proc",
        type=int,
        default=1,
        help="processor to load FILE onto in --system mode",
    )
    p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1000,
        metavar="K",
        help="record a reverse-step checkpoint every K cycles (--system)",
    )
    p.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="save a full-system checkpoint when the script ends (--system)",
    )
    p.add_argument(
        "--no-idle-skip",
        action="store_true",
        help="strict lock-step kernel in --system mode",
    )
    p.set_defaults(fn=cmd_debug)

    p = sub.add_parser("cc", help="compile R8C")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("-S", "--emit-asm", action="store_true")
    p.set_defaults(fn=cmd_cc)

    p = sub.add_parser("system", help="run on the full MultiNoC")
    p.add_argument("file", nargs="?", help="program to load onto --proc")
    p.add_argument(
        "--workload",
        choices=["edge-detection"],
        help="run a built-in workload instead of a program file",
    )
    p.add_argument("--proc", type=int, default=1)
    p.add_argument(
        "--topology",
        metavar="SPEC",
        help="fabric shape: mesh:WxH, torus:WxH or cmesh:WxHxC "
        "(default: the paper's 2x2 mesh)",
    )
    p.add_argument(
        "--procs",
        type=int,
        metavar="N",
        help="number of processor IPs to auto-place (default 2; "
        "combine with --topology for larger fabrics)",
    )
    p.add_argument("--scanf", help="comma-separated scanf answers")
    p.add_argument("--max-cycles", type=int, default=5_000_000)
    p.add_argument("--vcd", help="dump the serial lines to a VCD file")
    p.add_argument(
        "--trace", help="write a Chrome/Perfetto trace-event JSON file"
    )
    p.add_argument("--trace-jsonl", help="write the raw event log as JSONL")
    p.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry as Prometheus text",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the latency summary and mesh utilisation heatmap",
    )
    p.add_argument(
        "--hostperf",
        action="store_true",
        help="attach the sampling host profiler (host-seconds per "
        "kilocycle per subsystem; never changes the execution mode)",
    )
    p.add_argument(
        "--hostperf-json",
        metavar="FILE",
        help="write the multinoc-hostperf/1 snapshot as JSON "
        "(implies --hostperf)",
    )
    p.add_argument(
        "--flamegraph",
        metavar="FILE",
        help="write sampled host stacks in folded format for "
        "flamegraph.pl / speedscope (implies --hostperf)",
    )
    p.add_argument(
        "--crash-dir",
        metavar="DIR",
        help="write a multinoc-crash/1 bundle (frames, hostperf "
        "snapshot, health diagnostics) under DIR if the run fails",
    )
    p.add_argument(
        "--monitor",
        action="store_true",
        help="attach the health monitor (watchdogs + invariant checks)",
    )
    p.add_argument(
        "--health-report",
        metavar="FILE",
        help="write the health report (violations, diagnostics, and the "
        "live frames' series at --live-stride) as JSON; implies --monitor",
    )
    p.add_argument(
        "--no-idle-skip",
        action="store_true",
        help="strict lock-step kernel: evaluate every component every "
        "cycle (identical results, no quiescence fast-forward)",
    )
    p.add_argument(
        "--top",
        action="store_true",
        help="render the live terminal dashboard while the run executes",
    )
    p.add_argument(
        "--serve",
        type=int,
        metavar="PORT",
        help="serve live telemetry over localhost HTTP "
        "(/metrics, /frame, /frames; 0 picks a free port)",
    )
    p.add_argument(
        "--live-stride",
        type=int,
        default=1024,
        metavar="K",
        help="emit a live frame every K cycles (default 1024)",
    )
    p.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the telemetry server up this long after the run "
        "(lets scrapers and remote dashboards catch the final frame)",
    )
    p.add_argument(
        "--alerts",
        metavar="RULES",
        help="evaluate a declarative alert/SLO rule file against every "
        "live frame (pending/firing/resolved notices on stderr, "
        "verdict report at the end; see docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--alert-log",
        metavar="FILE",
        help="append every alert transition as multinoc-alert/1 JSONL",
    )
    p.add_argument(
        "--no-color",
        action="store_true",
        help="plain-ASCII dashboard output (also honours NO_COLOR)",
    )
    _add_record_flags(p)
    p.set_defaults(fn=cmd_system)

    p = sub.add_parser(
        "top", help="live terminal dashboard for a served simulation"
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:9777",
        help="telemetry server to attach to (see `system --serve`)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render the latest frame once and exit (CI snapshots)",
    )
    p.add_argument(
        "--frames",
        type=int,
        metavar="N",
        help="exit after rendering N streamed frames",
    )
    p.add_argument(
        "--no-color",
        action="store_true",
        help="plain-ASCII output (also honours NO_COLOR)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=6,
        metavar="N",
        help="retry --once snapshots this many times (short backoff) "
        "while the server has no frame yet",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "analyze", help="post-mortem analysis of a JSONL trace"
    )
    p.add_argument("trace", help="JSONL event log (from --trace-jsonl)")
    p.add_argument(
        "--baseline",
        help="baseline JSONL trace to diff against (exit 1 on regression)",
    )
    p.add_argument(
        "--flamegraph",
        metavar="FILE",
        help="write folded stacks for flamegraph.pl / speedscope",
    )
    p.add_argument(
        "--annotate",
        metavar="OBJ",
        help="object/assembly file to render as an annotated listing",
    )
    p.add_argument("--json", metavar="FILE", help="write the analysis as JSON")
    p.add_argument(
        "--top", type=int, default=5, help="rows per report section"
    )
    p.add_argument(
        "--threshold-pct",
        type=float,
        default=10.0,
        help="relative regression threshold for --baseline",
    )
    p.add_argument(
        "--threshold-cycles",
        type=float,
        default=5.0,
        help="absolute regression threshold for --baseline",
    )
    _add_record_flags(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "runs",
        help="cross-run observatory: the persistent run registry",
        description="Query, compare, trend and prune the append-only "
        "run registry (.multinoc/runs or $MULTINOC_RUNS_DIR).",
    )
    p.add_argument(
        "--dir",
        metavar="DIR",
        help="registry root (default: $MULTINOC_RUNS_DIR or .multinoc/runs)",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    def _dir_flag(q):
        # accepted both before and after the subcommand; SUPPRESS keeps
        # the subparser from clobbering a value parsed by the parent
        q.add_argument(
            "--dir", metavar="DIR", default=argparse.SUPPRESS,
            help="registry root (overrides the pre-subcommand --dir)",
        )

    def _threshold_flags(q):
        # the dual-threshold rule shared by `runs diff` and `runs trend`
        q.add_argument(
            "--threshold-pct", type=float, default=10.0,
            help="relative regression threshold (default 10%%)",
        )
        q.add_argument(
            "--threshold-abs", type=float, default=0.0,
            help="absolute regression threshold (default 0)",
        )

    q = runs_sub.add_parser("list", help="history index, oldest first")
    _dir_flag(q)
    q.add_argument("--limit", type=int, metavar="N", help="newest N only")
    q.add_argument(
        "--metric",
        metavar="NAME",
        help="add a column with this metric's value and a trend arrow "
        "(latest vs the rolling-median baseline)",
    )
    q.add_argument(
        "--json", action="store_true", help="print index entries as JSON"
    )
    q.set_defaults(fn=cmd_runs)

    q = runs_sub.add_parser(
        "show", help="print one record verbatim (bit-identical JSON)"
    )
    _dir_flag(q)
    q.add_argument("run_id")
    q.set_defaults(fn=cmd_runs)

    q = runs_sub.add_parser(
        "diff", help="compare two records metric-by-metric (exit 1 on "
        "regression)"
    )
    _dir_flag(q)
    q.add_argument("baseline", help="baseline run id")
    q.add_argument("current", help="current run id")
    _threshold_flags(q)
    q.add_argument("--json", metavar="FILE", help="write the diff as JSON")
    q.set_defaults(fn=cmd_runs)

    q = runs_sub.add_parser(
        "trend",
        help="rolling-median trend over the history; exit 1 on a "
        "sustained regression (the CI gate)",
    )
    _dir_flag(q)
    q.add_argument(
        "--metric",
        action="append",
        metavar="NAME[,NAME...]",
        help="metric(s) to trend (default: all in the newest record)",
    )
    q.add_argument(
        "--kind", help="only trend records of this kind (system, bench, ...)"
    )
    q.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="rolling-median baseline window (default 5 records)",
    )
    q.add_argument(
        "--sustain", type=int, default=2, metavar="K",
        help="consecutive regressed records before flagging (default 2)",
    )
    _threshold_flags(q)
    q.add_argument(
        "--allow-cross-machine",
        action="store_true",
        help="compare records across machine fingerprints (off by "
        "default: cross-machine histories are excluded, with a note)",
    )
    q.add_argument("--json", metavar="FILE", help="write the report as JSON")
    q.set_defaults(fn=cmd_runs)

    q = runs_sub.add_parser(
        "gc", help="retention: delete all but the newest N records"
    )
    _dir_flag(q)
    q.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="number of newest records to keep",
    )
    q.set_defaults(fn=cmd_runs)

    p = sub.add_parser(
        "alerts",
        help="alerting & SLO engine: lint rules, replay them post-hoc",
        description="One rule syntax across live and post-mortem: the "
        "same file `multinoc system --alerts` evaluates on live frames "
        "can be linted here, or replayed over stored traces and "
        "registry records as a CI gate.",
    )
    alerts_sub = p.add_subparsers(dest="alerts_command", required=True)

    q = alerts_sub.add_parser(
        "check",
        help="replay rules over a stored trace or the run registry "
        "(exit 1 if any alert fired or an SLO is burning)",
    )
    q.add_argument("rules", help="alert/SLO rule file")
    q.add_argument(
        "--trace",
        metavar="JSONL",
        help="replay the mirrored live frames of a JSONL event log "
        "(written by `system --alerts ... --trace-jsonl`)",
    )
    q.add_argument(
        "--runs-dir",
        metavar="DIR",
        help="evaluate over run-registry records instead "
        "(one record = one rule step; `for: N` = N consecutive records)",
    )
    q.add_argument(
        "--kind", help="only registry records of this kind (system, bench)"
    )
    q.add_argument(
        "--limit", type=int, metavar="N", help="newest N records only"
    )
    q.add_argument(
        "--log",
        metavar="FILE",
        help="append replayed transitions as multinoc-alert/1 JSONL",
    )
    q.add_argument(
        "--json", metavar="FILE", help="write the verdict document as JSON"
    )
    q.set_defaults(fn=cmd_alerts)

    q = alerts_sub.add_parser(
        "lint", help="parse and validate a rule file (exit 2 on errors)"
    )
    q.add_argument("rules", help="alert/SLO rule file")
    q.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print the frame-field reference",
    )
    q.set_defaults(fn=cmd_alerts)

    p = sub.add_parser("prototype", help="Section 3 implementation report")
    p.add_argument("--iterations", type=int, default=3000)
    p.set_defaults(fn=cmd_prototype)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Tests for the online health-monitoring subsystem.

Covers the watchdogs (a wedged network must trip the deadlock detector
with a correct wait-for graph, a starved flow must trip the packet-age
detector, a healthy run must report zero violations), the invariant
checks, the health report's time series (a fold of the live frames),
and the requirement that an attached monitor never perturbs simulation
results.
"""

import json

import pytest

from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.core import MultiNoCPlatform
from repro.host.serial_software import HostTimeout
from repro.noc.mesh import Mesh
from repro.noc.network import HermesNetwork
from repro.noc.ni import NetworkInterface
from repro.noc.packet import Packet
from repro.noc.routing import Port
from repro.noc.stats import NetworkStats
from repro.sim import Simulator
from repro.sim.kernel import SimulationTimeout
from repro.telemetry.health import HealthMonitor, HealthViolation
from repro.telemetry.live import frame_fields
from repro.telemetry.top import FrameSeries

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

SCANF_FOREVER = """
        CLR  R0
        LDI  R2, 0xFFFF
        LD   R1, R2, R0        ; scanf with no answer: the core wedges
        HALT
"""


class WedgedNI(NetworkInterface):
    """A sink NI that never consumes a flit."""

    def _eval_receiver(self, cycle):
        pass


def attach_ni(mesh, ni, address):
    into, out = mesh.local_channels(address)
    ni.attach(to_router=into, from_router=out)
    return ni


def build_wedged_mesh():
    """2x2 mesh, source at (0,0), wedged sink at (1,1)."""
    stats = NetworkStats()
    mesh = Mesh(2, 2, stats=stats)
    source = attach_ni(mesh, NetworkInterface("src", (0, 0), stats=stats), (0, 0))
    sink = attach_ni(mesh, WedgedNI("sink", (1, 1), stats=stats), (1, 1))
    sim = Simulator()
    sim.add(mesh)
    sim.add(source)
    sim.add(sink)
    return sim, mesh, stats, source, sink


class TestDeadlockWatchdog:
    def test_wedged_mesh_raises_diagnosed_deadlock(self):
        sim, mesh, stats, source, sink = build_wedged_mesh()
        monitor = HealthMonitor(deadlock_cycles=400, check_interval=16)
        monitor.attach(sim, mesh=mesh, stats=stats, nis=[source, sink])
        source.send_packet(Packet(target=(1, 1), payload=[1, 2]))
        with pytest.raises(HealthViolation) as excinfo:
            sim.step(10_000)
        violation = excinfo.value
        assert violation.kind == "deadlock"
        assert violation.details["in_flight"] == 1
        graph = violation.details["wait_for"]
        # the blocked chain ends at the wedged sink
        assert "sink.rx" in graph["roots"]
        blocked = {
            (e["src"], e["dst"]) for e in graph["edges"] if e["blocked"]
        }
        assert ("router11.SOUTH", "sink.rx") in blocked
        assert ("router10.WEST", "router11.SOUTH") in blocked
        # XY routing is deadlock-free: a wedge is a chain, not a cycle
        assert graph["cycle_nodes"] == []
        # the exception names the blocked router/port
        assert "sink.rx" in str(violation)

    def test_deadlock_dump_has_fifo_and_movement_state(self):
        sim, mesh, stats, source, sink = build_wedged_mesh()
        monitor = HealthMonitor(
            deadlock_cycles=400, check_interval=16, on_violation="record"
        )
        monitor.attach(sim, mesh=mesh, stats=stats, nis=[source, sink])
        source.send_packet(Packet(target=(1, 1), payload=[7]))
        sim.step(2_000)
        assert monitor.violations, "record mode must collect the deadlock"
        details = monitor.violations[0].details
        # header + size flits of the wedged packet sit at router11.SOUTH
        assert details["fifo_snapshots"]["router11"]["SOUTH"] == [0x11, 1]
        assert set(details["last_movement"]) == {
            "router00", "router01", "router10", "router11",
        }
        # the whole dump is JSON-serialisable (exception payload contract)
        json.dumps(details)

    def test_quiet_network_never_trips(self):
        sim, mesh, stats, source, sink = build_wedged_mesh()
        monitor = HealthMonitor(deadlock_cycles=100, check_interval=16)
        monitor.attach(sim, mesh=mesh, stats=stats, nis=[source, sink])
        sim.step(2_000)  # no traffic at all
        assert monitor.violations == []

    def test_timeout_under_monitor_carries_diagnostics(self):
        sim, mesh, stats, source, sink = build_wedged_mesh()
        monitor = HealthMonitor(deadlock_cycles=None)  # watchdog off
        monitor.attach(sim, mesh=mesh, stats=stats, nis=[source, sink])
        source.send_packet(Packet(target=(1, 1), payload=[3]))
        with pytest.raises(SimulationTimeout) as excinfo:
            sim.run_until(lambda: sink.has_received(), max_cycles=1_000)
        diag = excinfo.value.diagnostics
        assert diag is not None
        assert "sink.rx" in diag["wait_for"]["roots"]
        assert diag["packets"]["in_flight"] == 1
        assert "sink.rx" in str(excinfo.value)


class TestStarvationWatchdog:
    def test_starved_flow_trips_packet_age_detector(self):
        """A healthy flow keeps the NoC moving while one flow starves."""
        stats = NetworkStats()
        mesh = Mesh(2, 2, stats=stats)
        # flow A: (0,1) -> (1,0), delivered normally, keeps flits moving
        src_a = attach_ni(mesh, NetworkInterface("srcA", (0, 1), stats=stats), (0, 1))
        sink_a = attach_ni(mesh, NetworkInterface("sinkA", (1, 0), stats=stats), (1, 0))
        # flow B: (0,0) -> wedged (1,1): its packet ages forever
        src_b = attach_ni(mesh, NetworkInterface("srcB", (0, 0), stats=stats), (0, 0))
        sink_b = attach_ni(mesh, WedgedNI("sinkB", (1, 1), stats=stats), (1, 1))
        sim = Simulator()
        for c in (mesh, src_a, sink_a, src_b, sink_b):
            sim.add(c)
        monitor = HealthMonitor(
            max_packet_age=600, deadlock_cycles=100_000, check_interval=16
        )
        monitor.attach(
            sim, mesh=mesh, stats=stats, nis=[src_a, sink_a, src_b, sink_b]
        )
        src_b.send_packet(Packet(target=(1, 1), payload=[9]))
        for _ in range(60):
            src_a.send_packet(Packet(target=(1, 0), payload=[1]))
        with pytest.raises(HealthViolation) as excinfo:
            sim.step(5_000)
        violation = excinfo.value
        assert violation.kind == "starvation"
        assert violation.details["target"] == [1, 1]
        assert violation.details["age"] >= 600
        # the healthy flow really was delivering meanwhile
        assert stats.packets_delivered > 10

    def test_delivered_traffic_does_not_trip(self):
        stats = NetworkStats()
        mesh = Mesh(2, 2, stats=stats)
        src = attach_ni(mesh, NetworkInterface("src", (0, 0), stats=stats), (0, 0))
        sink = attach_ni(mesh, NetworkInterface("sink", (1, 1), stats=stats), (1, 1))
        sim = Simulator()
        for c in (mesh, src, sink):
            sim.add(c)
        monitor = HealthMonitor(max_packet_age=200, check_interval=8)
        monitor.attach(sim, mesh=mesh, stats=stats, nis=[src, sink])
        for _ in range(20):
            src.send_packet(Packet(target=(1, 1), payload=[1, 2]))
        sim.step(4_000)
        assert sink.has_received()
        assert monitor.violations == []


class TestCpuAndHostWatchdogs:
    def test_unanswered_scanf_trips_cpu_stall(self):
        session = MultiNoCPlatform.standard().launch()
        monitor = session.monitor_health(
            cpu_stall_cycles=2_000, check_interval=64
        )
        session.start(1, SCANF_FOREVER)  # no scanf handler installed
        with pytest.raises(HealthViolation) as excinfo:
            session.sim.step(60_000)
        violation = excinfo.value
        assert violation.kind == "cpu_stall"
        assert violation.component == "proc1"
        assert violation.details["stalled_cycles"] >= 2_000
        assert violation.details["halted"] is False
        assert monitor is session.health

    def test_wedged_board_trips_host_transaction_watchdog(self):
        session = MultiNoCPlatform.standard().launch()
        session.monitor_health(
            host_transaction_cycles=3_000,
            deadlock_cycles=None,
            cpu_stall_cycles=None,
            check_interval=64,
        )
        session.host.sync()
        # wedge the memory IP's NI: a read of it never answers
        session.system.memory(0).ni._eval_receiver = lambda cycle: None
        with pytest.raises(HealthViolation) as excinfo:
            session.read("mem0", 0, 4)
        violation = excinfo.value
        assert violation.kind == "host_timeout"
        assert violation.details["transaction"] == "read return"

    def test_plain_host_timeout_still_wraps_simulation_timeout(self):
        session = MultiNoCPlatform.standard().launch()
        session.monitor_health(
            deadlock_cycles=None,
            cpu_stall_cycles=None,
            host_transaction_cycles=None,
        )
        session.system.memory(0).ni._eval_receiver = lambda cycle: None
        session.host.sync()
        with pytest.raises(HostTimeout) as excinfo:
            session.host.read_memory(
                session.memory_address(0), 0, 1, max_cycles=60_000
            )
        # the monitor's dump rides along on the host-level exception;
        # the read request wedges mid-injection, so the wait-for graph
        # (not the in-flight count) is what localises the blockage
        diag = excinfo.value.diagnostics
        assert diag is not None
        assert "mem0.ni.rx" in diag["wait_for"]["roots"]
        assert any(e["blocked"] for e in diag["wait_for"]["edges"])


class TestHealthyRuns:
    def test_healthy_run_reports_zero_violations(self):
        """Full monitoring (watchdogs + invariants) on a clean program."""
        session = MultiNoCPlatform.standard().launch()
        monitor = session.monitor_health(check_interval=16, invariants=True)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        assert session.host.monitor(1).printf_values == [5, 4, 3, 2, 1]
        assert monitor.violations == []
        assert monitor.checks_run > 0

    def test_monitor_does_not_perturb_results(self):
        """Bit-identical behaviour with and without the monitor checking
        every cycle beside a live frame series."""
        assert_matches_lockstep(
            Draw(PRINTF_BOARD, observers=frozenset({"health", "live"}),
                 check_interval=1)
        )

    def test_diagnostics_of_sleeping_routers_match_lockstep(self):
        """A router asleep through blocked re-arbitrations lags in its
        control state and blocked count until its credit is settled;
        the diagnostic dump settles first, so it reads like lock-step's
        at every cycle."""
        config = TrafficConfig(
            rate=0.03,
            duration=300,
            payload_flits=8,
            hotspot_node=(0, 0),
            seed=3,
        )
        monitors = []
        for strict in (True, False):
            net = HermesNetwork(topology="mesh:4x4")
            drive_traffic(net, config)
            sim = net.make_simulator(strict_lockstep=strict)
            sim.reset()
            monitors.append(
                HealthMonitor(deadlock_cycles=None, invariants=False).attach(
                    sim, mesh=net.mesh, stats=net.stats
                )
            )
        for _ in range(300):
            dumps = []
            for monitor in monitors:
                monitor.sim.step(1)
                dumps.append(monitor.diagnostics())
            assert dumps[0] == dumps[1], monitors[0].sim.cycle

    def test_detach_stops_checking(self):
        sim, mesh, stats, source, sink = build_wedged_mesh()
        monitor = HealthMonitor(deadlock_cycles=200, check_interval=16)
        monitor.attach(sim, mesh=mesh, stats=stats, nis=[source, sink])
        monitor.detach()
        assert sim.health is None
        source.send_packet(Packet(target=(1, 1), payload=[1]))
        sim.step(2_000)  # wedged, but nobody is watching
        assert monitor.violations == []


class TestInvariants:
    def make_monitored_mesh(self):
        stats = NetworkStats()
        mesh = Mesh(2, 2, stats=stats)
        sim = Simulator()
        sim.add(mesh)
        monitor = HealthMonitor(invariants=True, on_violation="record")
        monitor.attach(sim, mesh=mesh, stats=stats)
        return monitor, mesh, stats

    def kinds(self, monitor):
        return {v.kind for v in monitor.violations}

    def test_clean_mesh_passes_all_invariants(self):
        monitor, mesh, stats = self.make_monitored_mesh()
        monitor.check_invariants(0)
        assert monitor.violations == []

    def test_fifo_overflow_detected(self):
        monitor, mesh, stats = self.make_monitored_mesh()
        mesh.router((0, 0)).fifos[0]._count = 99
        monitor.check_invariants(0)
        assert "invariant.fifo_bounds" in self.kinds(monitor)

    def test_illegal_xy_turn_detected(self):
        monitor, mesh, stats = self.make_monitored_mesh()
        router = mesh.router((0, 0))
        # a Y-to-X turn is illegal under XY routing
        router.in_conn[Port.NORTH] = int(Port.EAST)
        router.out_owner[Port.EAST] = int(Port.NORTH)
        monitor.check_invariants(0)
        assert "invariant.xy_routing" in self.kinds(monitor)

    def test_double_producer_detected(self):
        monitor, mesh, stats = self.make_monitored_mesh()
        router = mesh.router((0, 0))
        router.in_conn[Port.WEST] = int(Port.EAST)
        router.in_conn[Port.LOCAL] = int(Port.EAST)
        router.out_owner[Port.EAST] = int(Port.WEST)
        monitor.check_invariants(0)
        assert "invariant.single_producer" in self.kinds(monitor)

    def test_packet_conservation_detects_stat_corruption(self):
        monitor, mesh, stats = self.make_monitored_mesh()
        stats._packets_injected.inc(3)  # injections with no stamps
        monitor.check_invariants(0)
        assert "invariant.packet_conservation" in self.kinds(monitor)

    def test_flit_conservation_detects_lost_flit(self):
        monitor, mesh, stats = self.make_monitored_mesh()
        # counters say one flit entered router00, but no FIFO holds it
        stats.flits_received[((0, 0), 0)] += 1
        monitor.check_invariants(0)
        assert "invariant.flit_conservation" in self.kinds(monitor)

    def test_raise_mode_raises_immediately(self):
        stats = NetworkStats()
        mesh = Mesh(2, 2, stats=stats)
        sim = Simulator()
        sim.add(mesh)
        monitor = HealthMonitor(invariants=True, check_interval=1)
        monitor.attach(sim, mesh=mesh, stats=stats)
        mesh.router((0, 0)).fifos[0]._count = 99
        with pytest.raises(HealthViolation):
            sim.step(2)


def fold_frames(frames):
    """Re-fold frames by hand: every numeric field, vectors as
    ``field.label`` — what the health report's series must equal."""
    series = {}
    for frame in frames:
        for name, value in frame_fields(frame).items():
            if isinstance(value, dict):
                items = {
                    f"{name}.{label}": v
                    for label, v in value.items()
                    if label != "__label__"
                }
            else:
                items = {name: value}
            for key, v in items.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    points = series.setdefault(
                        key, {"cycles": [], "values": []}
                    )
                    points["cycles"].append(frame["cycle"])
                    points["values"].append(float(v))
    return series


def monitored_with_series(stride, strict=False):
    """A session with the health monitor and a FrameSeries on the live
    stream, wired as ``multinoc system --health-report`` wires them."""
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    monitor = session.monitor_health(invariants=True)
    series = FrameSeries(stride)
    session.live_stream(stride=stride).subscribe(series.observe)
    return session, monitor, series


class TestSampler:
    def test_window_keeps_newest_samples(self):
        series = FrameSeries(interval=10, window=4)
        for cycle in range(10, 110, 10):
            series.append("gauge", cycle, cycle // 10)
        assert [v for _, v in series.series["gauge"]] == [7, 8, 9, 10]
        assert [c for c, _ in series.series["gauge"]] == [70, 80, 90, 100]
        with pytest.raises(ValueError, match="interval"):
            FrameSeries(interval=0)
        with pytest.raises(ValueError, match="window"):
            FrameSeries(interval=1, window=0)

    def test_observe_names_series_like_alert_fields(self):
        series = FrameSeries(interval=256, window=8)
        series.observe(
            {
                "cycle": 256,
                "packets": {"in_flight": 2, "throughput_flits_per_cycle": 0.5},
                "routers": {"router00": {"occupancy": 3, "rate": 0.25}},
                "cpus": {"proc1": {"state": "fetch", "ipc": 0.4}},
                "health": {"attached": True, "violations": 0},
            }
        )
        assert series.series["in_flight"][-1] == (256, 2.0)
        assert series.series["router_occupancy.router00"][-1] == (256, 3.0)
        assert series.series["router_rate.router00"][-1] == (256, 0.25)
        assert series.series["cpu_ipc.proc1"][-1] == (256, 0.4)
        # strings (cpu_state, health) have no series
        assert not any(n.startswith("cpu_state") for n in series.series)
        assert "health" not in series.series

    def test_dict_export(self):
        series = FrameSeries(interval=5, window=8)
        series.append("a", 5, 1.5)
        series.append("a", 10, 1.5)
        data = series.as_dict()
        assert data["interval"] == 5 and data["window"] == 8
        assert data["series"]["a"] == {"cycles": [5, 10], "values": [1.5, 1.5]}
        json.dumps(data)

    def test_sparkline_and_timeline(self):
        series = FrameSeries(interval=1, window=100)
        for cycle in range(1, 101):
            series.append("ramp", cycle, float(cycle))
        line = series.sparkline("ramp", width=10, ascii=True)
        assert len(line) == 10
        assert line[0] == " " and line[-1] == "@"
        timeline = series.timeline(ascii=True)
        assert "ramp" in timeline and "cycles 1..100" in timeline
        assert "one sample per 1 cycles" in timeline
        assert series.sparkline("missing") == ""
        assert FrameSeries(1).timeline() == "(no samples)"

    @pytest.mark.parametrize("strict", [False, True])
    def test_report_series_are_a_fold_of_the_frames(self, strict):
        session, monitor, series = monitored_with_series(50, strict)
        frames = []
        session.live.subscribe(frames.append)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        session.live.force()
        assert len(frames) < series.window  # nothing rolled off
        report = monitor.report(series.as_dict())
        assert report["sampler"]["interval"] == 50
        assert report["sampler"]["series"] == fold_frames(frames)
        names = set(report["sampler"]["series"])
        assert "in_flight" in names
        assert any(n.startswith("router_occupancy.router") for n in names)
        assert any(n.startswith("router_rate.router") for n in names)
        assert any(n.startswith("cpu_ipc.proc") for n in names)


class TestReport:
    def test_report_is_json_serialisable_and_complete(self):
        session, monitor, series = monitored_with_series(100)
        session.host.sync()
        session.run(1, PRINTF_LOOP)
        report = monitor.report(series.as_dict())
        json.dumps(report)
        assert report["schema"] == "multinoc-health/1"
        assert report["violations"] == []
        assert report["checks_run"] == monitor.checks_run
        assert report["sampler"]["interval"] == 100
        diag = report["diagnostics"]
        assert set(diag["processors"]) == {"proc1", "proc2"}
        assert diag["packets"]["in_flight"] == 0

    def test_describe_mentions_key_state(self):
        sim, mesh, stats, source, sink = build_wedged_mesh()
        monitor = HealthMonitor(deadlock_cycles=None)
        monitor.attach(sim, mesh=mesh, stats=stats, nis=[source, sink])
        source.send_packet(Packet(target=(1, 1), payload=[1]))
        sim.step(800)
        text = monitor.describe()
        assert "1 in flight" in text
        assert "root blocker: sink.rx" in text

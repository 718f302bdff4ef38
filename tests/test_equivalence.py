"""One differential oracle for every way of running the same board.

A draw picks a fabric and a workload, a kernel mode (or a mode pair
around a checkpoint split), a set of observers and an optional split
cycle.  The candidate run is observed and, when the draw splits,
snapshotted, JSON round-tripped and restored into a fresh build in the
second mode.  It must produce the same digest as the same draw run in
strict lock-step with no observers and no split: the final cycle, every
component's state, memory images, CPU counters and registers, the
cycle-stamped printf transcripts, the per-key NoC statistics, the
delivered packets, the telemetry event list and the VCD change list.
At a split the digests must also match mid-run, after the snapshot has
settled every sleeper's idle credit.
"""

import io
import json
import random
from dataclasses import dataclass
from typing import Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import EdgeDetectionApp, reference_sobel
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.cc import compile_source
from repro.core import MultiNoCPlatform, Program
from repro.noc.network import HermesNetwork
from repro.sim import CheckpointRing, VcdWriter
from repro.telemetry import (
    AlertEngine,
    HealthMonitor,
    HostPerfProfiler,
    LiveStream,
    MeshTop,
    TelemetryServer,
    TelemetrySink,
)
from repro.telemetry.alerts import parse_rules

from .test_cc_fuzz import c_program

# ---------------------------------------------------------------------------
# Workload pool
# ---------------------------------------------------------------------------

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

BATCHES = 2
BATCH_WORDS = 4
BUFFER = 0x300

PRODUCER = f"""
        CLR  R0
        LDL  R9, 0
        LDI  R10, {BATCHES}
        LDL  R4, 1
outer:  CLR  R1
        LDI  R2, {1024 + BUFFER}
        LDI  R3, {BATCH_WORDS}
fill:   MOV  R6, R9
        SL0  R6, R6
        SL0  R6, R6
        ADD  R6, R6, R1
        ST   R6, R2, R1        ; remote store into P2's memory
        ADD  R1, R1, R4
        SUB  R8, R3, R1
        JMPZD batch_done
        JMP  fill
batch_done:
        LDI  R5, 2
        LDI  R6, 0xFFFD
        ST   R5, R6, R0        ; notify P2: batch ready
        LDI  R5, 2
        LDI  R6, 0xFFFE
        ST   R5, R6, R0        ; wait until P2 consumed it
        ADD  R9, R9, R4
        SUB  R8, R10, R9
        JMPZD all_done
        JMP  outer
all_done:
        HALT
"""

CONSUMER = f"""
        CLR  R0
        LDL  R9, 0
        LDI  R10, {BATCHES}
        LDL  R4, 1
outer:  LDI  R5, 1
        LDI  R6, 0xFFFE
        ST   R5, R6, R0        ; wait for P1's batch
        CLR  R1
        CLR  R5
        LDI  R2, {BUFFER}
        LDI  R3, {BATCH_WORDS}
sum:    LD   R7, R2, R1
        ADD  R5, R5, R7
        ADD  R1, R1, R4
        SUB  R8, R3, R1
        JMPZD consumed
        JMP  sum
consumed:
        LDI  R6, 0xFFFF
        ST   R5, R6, R0        ; printf(checksum)
        LDI  R5, 1
        LDI  R6, 0xFFFD
        ST   R5, R6, R0        ; notify P1: buffer free
        ADD  R9, R9, R4
        SUB  R8, R10, R9
        JMPZD all_done
        JMP  outer
all_done:
        HALT
"""

SEA_RESULT = 0x80


def _sea_worker(pid, n_procs, chunk, successor_base):
    """Chain-reduction worker: sum this worker's chunk, add the
    successor's accumulated total read through the NUMA window, and
    pass the baton down the chain (P1 prints the grand total)."""
    first = 1 + (pid - 1) * chunk
    last = first + chunk - 1
    reduce_part = ""
    if pid < n_procs:
        reduce_part = f"""
        LDI  R3, {pid + 1}
        LDI  R2, 0xFFFE
        ST   R3, R2, R0      ; wait for P{pid + 1}
        LDI  R2, {successor_base + SEA_RESULT}
        LD   R4, R2, R0      ; successor's accumulated total (NUMA read)
        ADD  R5, R5, R4
        LDI  R2, {SEA_RESULT}
        ST   R5, R2, R0      ; re-publish the accumulated total
"""
    if pid == 1:
        finish = """
        LDI  R2, 0xFFFF
        ST   R5, R2, R0      ; P1 announces the grand total
        HALT
"""
    else:
        finish = f"""
        LDI  R3, {pid - 1}
        LDI  R2, 0xFFFD
        ST   R3, R2, R0      ; pass the baton to P{pid - 1}
        HALT
"""
    return f"""
        CLR  R0
        LDI  R1, {first}
        LDI  R6, {last}
        LDL  R7, 1
        CLR  R5
sum:    ADD  R5, R5, R1
        SUB  R8, R6, R1
        JMPZD summed
        ADD  R1, R1, R7
        JMP  sum
summed: LDI  R2, {SEA_RESULT}
        ST   R5, R2, R0      ; publish the partial for my predecessor
{reduce_part}{finish}
"""


def _programs(system, program, arg):
    """pid -> program, in start order."""
    if program == "printf":
        return {1: PRINTF_LOOP}
    if program == "sync":
        return {2: CONSUMER, 1: PRODUCER}
    if program == "cc":
        pid, source, _ = arg
        return {pid: Program(source, compile_source(source))}
    n = len(system.processors)
    return {
        pid: _sea_worker(
            pid, n, arg, system.numa_base(pid, pid + 1) if pid < n else None
        )
        for pid in range(1, n + 1)
    }


def _printed(n_procs, program, arg):
    """pid -> the printf values the program must print."""
    if program == "printf":
        return {1: [5, 4, 3, 2, 1]}
    if program == "sync":
        return {
            2: [
                sum(b * BATCH_WORDS + i for i in range(BATCH_WORDS)) & 0xFFFF
                for b in range(BATCHES)
            ]
        }
    if program == "cc":  # the values the R8C interpreter computed
        return {arg[0]: list(arg[2])}
    return {1: [sum(range(1, n_procs * arg + 1)) & 0xFFFF]}


def _edge_image(height=4, width=16, seed=7):
    rng = random.Random(seed)
    return [[rng.randrange(256) for _ in range(width)] for _ in range(height)]


def _events(sink):
    """Telemetry events as a comparable list (order-preserving)."""
    if sink is None:
        return []
    return [(e.ph, e.name, e.track, e.ts, e.dur, e.args) for e in sink.events]


def _json(doc):
    return json.loads(json.dumps(doc))


#: sleep bookkeeping, not architecture: a sleeping component's last-eval
#: stamp lags the lock-step value, and a router records the inputs that
#: were stalled when it fell asleep (lock-step never sleeps)
SCHEDULING_KEYS = ("now", "cycle", "stalled")


def _scrub(node):
    """Component state without its sleep bookkeeping: every wire,
    register and memory word must match."""
    if isinstance(node, dict):
        return {
            k: _scrub(v) for k, v in node.items() if k not in SCHEDULING_KEYS
        }
    if isinstance(node, list):
        return [_scrub(v) for v in node]
    return node


# ---------------------------------------------------------------------------
# Fabrics: one build of a draw, with what the observers attach to
# ---------------------------------------------------------------------------


class _Noc:
    """A bare Hermes fabric under synthetic traffic, traced or not (a
    router with a telemetry sink wakes for every routing decision to
    record it; one without sleeps through the blocked ones), with
    2-flit or deeper input buffers."""

    def __init__(self, workload, strict):
        _, topology, config, traced, depth = workload
        self.sink = TelemetrySink() if traced else None
        self.net = net = HermesNetwork(
            topology=topology, buffer_depth=depth, telemetry=self.sink
        )
        self.sources = drive_traffic(net, config)
        self.sim = net.make_simulator(strict_lockstep=strict)
        self.sim.reset()
        self.stats = net.stats
        into, out = net.mesh.local_channels((0, 0))
        self.wires = [into.tx, into.data, into.ack, out.tx, out.data, out.ack]
        self.parts = dict(mesh=net.mesh, stats=net.stats)
        self.health_parts = dict(self.parts, nis=net.interfaces.values())

    def setup(self):
        return {}

    def leg(self, start):
        return lambda: all(s.done for s in self.sources) and self.net.drained

    def finish(self):
        pass

    def digest(self):
        return {
            "injected": [s.injected for s in self.sources],
            "delivered": sorted(
                (tuple(p.target), tuple(p.payload))
                for ni in self.net.interfaces.values()
                for p in ni.received
            ),
        }

    @staticmethod
    def expect(workload, digest):
        assert len(digest["delivered"]) == sum(digest["injected"])


class _Board:
    """A MultiNoC platform running R8 programs the host loaded, traced
    or not (a traced core is evaluated every cycle to sample its PC; an
    untraced one sleeps through its poll loops).

    The serial link runs at the fastest divisor the UART takes (2 cycles
    per bit), which halves the lock-step reference's loading time; edge
    detection keeps the default 4."""

    BAUD_DIVISOR = 2

    def __init__(self, workload, strict):
        topology, n_procs = workload[1:3]
        traced = workload[5]
        platform = (
            MultiNoCPlatform.standard()
            if topology is None
            else MultiNoCPlatform(topology=topology, n_processors=n_procs)
        )
        self.session = s = platform.launch(
            baud_divisor=self.BAUD_DIVISOR,
            telemetry=TelemetrySink() if traced else None,
            strict_lockstep=strict,
        )
        self.sim, self.sink, self.system = s.sim, s.telemetry, s.system
        self.stats = s.system.stats
        self.wires = [s.system.rxd, s.system.txd]
        self.parts = self.health_parts = dict(system=s.system, host=s.host)
        self.workload = workload
        self.readback = None

    def setup(self):
        self.session.host.sync()
        programs = _programs(self.system, *self.workload[3:5])
        for pid, program in programs.items():
            self.session.start(pid, program)
        return {}

    def leg(self, start):
        return lambda: self.system.all_halted

    def finish(self):
        system = self.system
        # the host's I/O-drain predicate probes UartTx.busy between cycles
        self.sim.run_until(
            lambda: system.idle and not system.serial.uart_tx.busy,
            max_cycles=1_000_000,
        )
        self.sim.step(200)
        self.readback = self.session.read(1, 0, 4)

    def digest(self):
        host = self.session.host
        out = {"readback": self.readback}
        for pid, proc in self.system.processors.items():
            cpu = proc.cpu
            out[f"proc{pid}"] = (
                proc.banks.dump(),
                cpu.instructions_retired,
                cpu.cycles_active,
                cpu.cycles_stalled,
                cpu.state.pc,
                list(cpu.state.regs),
            )
        for i, mem in enumerate(self.system.memories):
            out[f"mem{i}"] = mem.banks.dump()
        out["monitors"] = {
            pid: m.to_state() for pid, m in sorted(host.monitors.items())
        }
        return out

    @staticmethod
    def expect(workload, digest):
        for pid, values in _printed(*workload[2:5]).items():
            printed = [v for _, v in digest["monitors"][pid]["printfs"]]
            assert printed == values, (pid, printed)


class _Edge(_Board):
    """The paper's edge detection (Figure 10) on the standard board."""

    BAUD_DIVISOR = 4

    def __init__(self, workload, strict):
        super().__init__(("board", None, 2, None, None, workload[4]), strict)
        self.image = _edge_image(*workload[1:4])

    def setup(self):
        self.session.host.sync()
        app = EdgeDetectionApp(self.session.host, processors=[1, 2])
        app.deploy()
        return {"output": app.run(self.image).output}

    def leg(self, start):
        return start + 2000

    def finish(self):
        pass

    @staticmethod
    def expect(workload, digest):
        assert digest["output"] == reference_sobel(_edge_image(*workload[1:4]))


FABRICS = {"noc": _Noc, "board": _Board, "edge": _Edge}


# ---------------------------------------------------------------------------
# Observers: attached to the candidate only, each must show it acted
# ---------------------------------------------------------------------------

OBSERVERS = ("live", "alerts", "hostperf", "health", "ring", "settle")

#: the routers' default routing time: settling every 1 to
#: ``ROUTING_CYCLES + 2`` cycles lands on every phase of a blocked
#: router's re-arbitration cycle
ROUTING_CYCLES = 7

#: fires on the first frame of any run
ALWAYS = """
alert observed
    expr: in_flight >= 0
"""


class _Observed:
    def __init__(self, rig, draw, span):
        obs, sim = draw.observers, rig.sim
        self.live = self.alerts = self.server = self.prof = None
        self.health = self.ring = None
        self.settled = None
        if obs & {"live", "alerts"}:
            self.live = LiveStream(stride=max(8, span // 16))
            self.live.attach(sim, **rig.parts)
        if "live" in obs:
            MeshTop(color=False, stream=io.StringIO()).attach(self.live)
            self.server = TelemetryServer(self.live, rig.stats.registry)
            self.server.start()
        if "alerts" in obs:
            self.alerts = AlertEngine(parse_rules(ALWAYS)).attach(self.live)
        if "hostperf" in obs:
            self.prof = HostPerfProfiler(interval=0.001)
            self.prof.attach(sim).start()
        if "health" in obs:
            # no shorter than the run, so that it checks at least once
            self.health = HealthMonitor(
                invariants=True,
                check_interval=min(draw.check_interval, max(1, span // 2)),
                on_violation="record",
            ).attach(sim, **rig.health_parts)
        if "ring" in obs:
            self.ring = CheckpointRing(sim, interval=max(1, span // 4))
            self.ring.attach()
        if "settle" in obs:
            # credit sleepers' idle spans in pieces, at any cycle
            self.settled = 0

            def settle(cycle):
                sim.settle()
                self.settled += 1

            sim.add_watcher(settle, stride=draw.settle_every)

    def close(self):
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.prof is not None:
            self.prof.detach()

    @staticmethod
    def assert_acted(draw, halves):
        """Every drawn observer acted in at least one half of the run."""
        obs = draw.observers

        def some(pick):
            return [x for x in map(pick, halves) if x is not None]

        if obs & {"live", "alerts"}:
            assert sum(x.frames_emitted for x in some(lambda h: h.live)) > 0
        if "alerts" in obs:
            assert any(x.fired_ever() for x in some(lambda h: h.alerts))
        if "hostperf" in obs:
            # sample counts depend on host timing: started and stopped
            profs = some(lambda h: h.prof)
            assert all(p.wall_seconds > 0 and p._thread is None for p in profs)
        if "health" in obs:
            monitors = some(lambda h: h.health)
            assert sum(m.checks_run for m in monitors) > 0
            assert [v for m in monitors for v in m.violations] == []
        if "ring" in obs:
            assert max(len(r.entries) for r in some(lambda h: h.ring)) >= 2
        if "settle" in obs:
            assert sum(some(lambda h: h.settled)) > 0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Draw:
    workload: tuple
    #: strict_lockstep of the candidate, or of each side of the split
    modes: tuple = (False,)
    observers: frozenset = frozenset()
    #: split this many cycles into the first leg after the host's setup
    split: Optional[int] = None
    check_interval: int = 64
    #: the settle observer's stride
    settle_every: int = 1


def _digest(rig, vcd, events):
    return {
        "cycle": rig.sim.cycle,
        "state": _scrub(_json(rig.sim.snapshot()["components"])),
        "noc": _json(rig.stats.snapshot()),
        "events": events,
        "vcd": [
            line for line in vcd.dump().splitlines()
            if not line.startswith("$comment")
        ],
        **rig.digest(),
    }


def _same(got, ref, where):
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key] == ref[key], f"{key} diverged {where}"


def _build(draw, strict):
    rig = FABRICS[draw.workload[0]](draw.workload, strict)
    vcd = VcdWriter(rig.wires)
    rig.sim.add_watcher(vcd.sample)
    return rig, vcd


def _go(sim, leg, stop=None):
    """Run a leg: until a predicate holds, or to an absolute cycle;
    the lock-step reference pauses early at cycle *stop*."""
    if not callable(leg):
        sim.step(min(leg, stop if stop is not None else leg) - sim.cycle)
    elif stop is None:
        sim.run_until(leg, max_cycles=5_000_000)
    else:
        sim.run_until(lambda: leg() or sim.cycle >= stop, max_cycles=5_000_000)


#: reference digests by (workload, split): lock-step without observers
#: depends on nothing else, so draws that differ only in mode, observers
#: or check interval share one reference run
_REFERENCES = {}


def _reference(draw):
    """Strict lock-step, no observers, no split; pauses at the split
    cycle only to take a digest there."""
    key = (repr(draw.workload), draw.split)
    if key not in _REFERENCES:
        _REFERENCES[key] = _run_reference(draw)
    return _REFERENCES[key]


def _run_reference(draw):
    rig, vcd = _build(draw, strict=True)
    facts = rig.setup()
    start = rig.sim.cycle
    leg = rig.leg(start)
    mid = None
    if draw.split is not None:
        _go(rig.sim, leg, stop=start + draw.split)
        mid = _digest(rig, vcd, _events(rig.sink))
    _go(rig.sim, leg)
    rig.finish()
    return start, mid, {**facts, **_digest(rig, vcd, _events(rig.sink))}


def _candidate(draw, start, mid_ref, span, halves):
    """The draw as asked: observed, and split when it splits; appends
    each half's observers to *halves*."""
    rig, vcd = _build(draw, strict=draw.modes[0])
    halves.append(_Observed(rig, draw, span))
    facts = rig.setup()
    assert rig.sim.cycle == start
    events = []
    if draw.split is not None:
        rig.sim.step(mid_ref["cycle"] - rig.sim.cycle)
        doc = _json(rig.sim.snapshot())
        events = _events(rig.sink)
        _same(_digest(rig, vcd, events), mid_ref, "at the split")
        halves[0].close()
        rig = FABRICS[draw.workload[0]](draw.workload, draw.modes[-1])
        # the fresh build's construction events precede the restored
        # timeline; the first half already recorded them
        if rig.sink is not None:
            del rig.sink.events[:]
        rig.sim.restore(doc)
        vcd.wires = rig.wires
        rig.sim.add_watcher(vcd.sample)
        halves.append(_Observed(rig, draw, span))
    _go(rig.sim, rig.leg(start))
    rig.finish()
    return {**facts, **_digest(rig, vcd, events + _events(rig.sink))}


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

#: the CI topology-matrix shapes: (topology, processors); None = standard
SHAPES = [(None, 2), ("mesh:4x4", 4), ("torus:4x4", 4), ("cmesh:2x2x2", 3)]


@st.composite
def noc_workload(draw):
    # a concentrated mesh has several local ports per router
    topology = draw(
        st.sampled_from(
            [
                "mesh:3x3",
                "mesh:4x4",
                "torus:3x3",
                "torus:4x4",
                "cmesh:2x2x2",
                "cmesh:3x3x2",
            ]
        )
    )
    config = TrafficConfig(
        rate=draw(st.sampled_from([0.01, 0.03, 0.06, 0.1])),
        duration=draw(st.integers(50, 250)),
        seed=draw(st.integers(0, 10_000)),
        hotspot_node=(0, 0) if draw(st.booleans()) else None,
    )
    return (
        "noc",
        topology,
        config,
        draw(st.booleans()),
        draw(st.sampled_from([2, 4])),
    )


@st.composite
def board_workload(draw):
    topology, n_procs = draw(st.sampled_from(SHAPES))
    program = draw(st.sampled_from(["printf", "sync", "cc", "sea"]))
    arg = None
    if program == "cc":
        source, expected = draw(c_program())
        arg = (draw(st.integers(1, n_procs)), source, tuple(expected))
    elif program == "sea":
        arg = draw(st.integers(2, 10))
    return ("board", topology, n_procs, program, arg, draw(st.booleans()))


#: cycles after setup a board's programs, or edge detection's tail, keep
#: the fabric busy
BUSY_CYCLES = {"board": 3000, "edge": 2000}


#: every workload the oracle draws: traffic, board programs, edge detection
WORKLOADS = st.one_of(
    noc_workload(),
    board_workload(),
    st.tuples(
        st.just("edge"),
        st.integers(3, 4),
        st.integers(3, 16),
        st.integers(0, 1000),
        st.booleans(),
    ),
)


@st.composite
def draws(draw, workloads=WORKLOADS):
    workload = draw(workloads)
    # a split lands while the fabric is busy: inside the traffic window,
    # the programs' run or edge detection's tail
    kind = workload[0]
    busy = workload[2].duration if kind == "noc" else BUSY_CYCLES[kind]
    split = draw(st.none() | st.integers(0, busy))
    modes = (
        (draw(st.booleans()),)
        if split is None
        else draw(st.tuples(st.booleans(), st.booleans()))
    )
    return Draw(
        workload,
        modes,
        draw(st.frozensets(st.sampled_from(OBSERVERS))),
        split,
        draw(st.sampled_from([1, 16, 64, 500])),
        draw(st.integers(1, ROUTING_CYCLES + 2)),
    )


def _mesh3x3(**config):
    return ("noc", "mesh:3x3", TrafficConfig(**config), True, 2)


#: the printf loop and the wait/notify pair on the standard board
PRINTF_BOARD = ("board", None, 2, "printf", None, True)
SYNC_BOARD = ("board", None, 2, "sync", None, True)

# the heavy hand-picked scenarios with their exact workload parameters,
# each split while busy; the kernel-equivalence tests run them
EDGE = Draw(("edge", 4, 16, 7, True), (False, True), split=500)
#: untraced, so the workers sleep through their FLAG poll loops
EDGE_SPIN = Draw(("edge", 4, 16, 7, False), (True, False), split=500)
SEA = Draw(
    ("board", "mesh:4x4", 8, "sea", 10, True), (False, False), split=2000
)
HOTSPOT = Draw(
    _mesh3x3(rate=0.08, duration=3000, hotspot_node=(0, 0), seed=3),
    (False, False),
    split=1500,
)
BURSTY = Draw(
    _mesh3x3(rate=0.004, duration=12_000, pattern="uniform", seed=9),
    (False, False),
    split=6000,
)


def assert_matches_lockstep(draw):
    """Run *draw* as asked and as the unobserved, unsplit lock-step
    reference; every entry of the two digests must match, and every
    drawn observer must have acted."""
    start, mid, ref = _reference(draw)
    FABRICS[draw.workload[0]].expect(draw.workload, ref)
    halves = []
    try:
        got = _candidate(draw, start, mid, ref["cycle"] - start, halves)
    finally:
        for half in halves:
            half.close()
    _same(got, ref, "at the end")
    _Observed.assert_acted(draw, halves)


@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(draws())
def test_every_run_of_a_draw_matches_lockstep(draw):
    assert_matches_lockstep(draw)


# the property above draws mostly board and edge runs; the bare fabric
# (traced or not, mesh or torus, uniform or hotspot traffic) gets its own
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(draws(noc_workload()))
def test_every_run_of_a_noc_draw_matches_lockstep(draw):
    assert_matches_lockstep(draw)

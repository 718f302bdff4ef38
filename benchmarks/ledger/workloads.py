"""The ledger's four workloads: closed, deterministic simulations.

Every workload is a class with one protocol:

* the constructor is the *set-up*: it draws the inputs from the seed,
  builds the model and the simulator and elaborates it with
  ``Simulator.step(0)``; ``phases`` records how long each part took;
* :meth:`run` is the *timed phase*, up to verified completion;
* :meth:`check` returns ``(attempted, failed)`` operations, judged from
  the outputs against an independent reference;
* :meth:`inputs` returns the generated inputs (the input pin digest);
* :meth:`sim_stats` returns the simulated statistics (the sim digest).

A timeout never raises out of :meth:`run`: the operations still
outstanding count as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.apps import EdgeDetectionApp, reference_sobel, worker_program  # noqa: E402
from repro.apps.workloads import PATTERNS, TrafficConfig, drive_traffic, hotspot  # noqa: E402
from repro.core import MultiNoCPlatform, Program  # noqa: E402
from repro.host import HostTimeout  # noqa: E402
from repro.noc import HermesNetwork  # noqa: E402
from repro.sim import SimulationTimeout  # noqa: E402

#: word each sea worker leaves its accumulated total in
RESULT_ADDR = 0x80
#: payload flits of every synthetic NoC packet
PAYLOAD_FLITS = 8
#: processors running the edge-detection worker
EDGE_WORKERS = (1, 2)
#: simulated-cycle budget per edge-detection line
EDGE_LINE_BUDGET = 200_000
#: simulated-cycle budget until every sea worker halts
SEA_BUDGET = 5_000_000
#: cycles the sea runs after the last halt, so late serial traffic drains
SEA_DRAIN = 6000


def digest(doc) -> str:
    """Short content hash of a JSON-able document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """Shared read-outs; subclasses set ``sim``, ``stats``, ``processors``."""

    def _elaborate(self, t_start: float, t_built: float, t_inputs: float) -> None:
        self.sim.step(0)
        self.start_cycle = self.sim.cycle
        self.phases = {
            "core.launch": t_built - t_start,
            "toolchain.assemble": t_inputs - t_built,
            "sim.elaborate": perf_counter() - t_inputs,
        }

    @property
    def sim_cycles(self) -> int:
        return self.sim.cycle - self.start_cycle

    def sim_stats(self) -> dict:
        """Exact simulated statistics from the public stats objects."""
        stats = self.stats
        cpus = [p.cpu for _, p in sorted(self.processors.items())]
        return {
            "cycles": self.sim_cycles,
            "latencies": list(stats.latencies),
            "flit_hops": sum(stats.flits_sent.values()),
            "stall_cycles": sum(stats.stall_cycles.values()),
            "blocked_routings": sum(stats.blocked_routings.values()),
            "connections_opened": sum(stats.connections_opened.values()),
            "instructions": [c.instructions_retired for c in cpus],
            "cycles_active": [c.cycles_active for c in cpus],
            "cycles_stalled": [c.cycles_stalled for c in cpus],
        }


# -- NoC traffic -------------------------------------------------------------


def fixed_count_schedule(source, width, height, config: TrafficConfig):
    """``rate * duration`` injections at distinct random cycles.

    ``TrafficSource`` draws a Bernoulli number of packets, so the amount
    of work, and with it every metric, would move with the seed.  This
    schedule keeps the count fixed; the seed still picks the injection
    cycles and the destinations, through the library's own patterns.
    """
    if config.hotspot_node is not None:
        pick = hotspot(config.hotspot_node)
    else:
        pick = PATTERNS[config.pattern]
    x, y = source
    rng = random.Random(config.seed * 1_000_003 + x * 131 + y)
    count = round(config.rate * config.duration)
    cycles = sorted(rng.sample(range(config.duration), count))
    return [(cycle, pick(source, width, height, rng)) for cycle in cycles]


def count_noc_failures(expected, received) -> int:
    """Packets not delivered exactly once at their target with their
    payload.  Both arguments are iterables of ``(target, payload)``."""
    want = Counter((tuple(t), tuple(p)) for t, p in expected)
    got = Counter((tuple(t), tuple(p)) for t, p in received)
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    return min(missing + extra, sum(want.values()))


class NocTraffic(Workload):
    """A bare Hermes fabric under synthetic traffic, run until every
    source is done and the network is drained."""

    def __init__(
        self,
        seed: int,
        topology: str = "mesh:8x8",
        rate: float = 0.05,
        duration: int = 300,
        hotspot_node=None,
        budget: int = 200_000,
    ):
        t_start = perf_counter()
        self.net = HermesNetwork(topology=topology)
        self.sim = self.net.make_simulator()
        self.stats = self.net.stats
        self.processors = {}
        config = TrafficConfig(
            pattern="uniform",
            rate=rate,
            payload_flits=PAYLOAD_FLITS,
            duration=duration,
            seed=seed,
            hotspot_node=hotspot_node,
        )
        self.budget = budget
        mesh = self.net.mesh
        self.sources = drive_traffic(self.net, config)
        for source in self.sources:
            source.schedule = fixed_count_schedule(
                source.ni.address, mesh.width, mesh.height, config
            )
        self.received = None
        t_built = perf_counter()
        self._elaborate(t_start, t_built, t_built)

    def inputs(self):
        return [[list(s.ni.address), s.schedule] for s in self.sources]

    def run(self) -> None:
        sources, net = self.sources, self.net
        try:
            self.sim.run_until(
                lambda: all(s.done for s in sources) and net.drained,
                max_cycles=self.budget,
                label="traffic drained",
            )
        except SimulationTimeout:
            pass

    def expected(self):
        # TrafficSource fills the payload with the packet's schedule index
        return [
            (target, [index & 0xFF] * PAYLOAD_FLITS)
            for source in self.sources
            for index, (_, target) in enumerate(source.schedule)
        ]

    def check(self):
        if self.received is None:
            self.received = [
                (p.target, p.payload) for p in self.net.collect_received()
            ]
        expected = self.expected()
        return len(expected), count_noc_failures(expected, self.received)


# -- edge detection ------------------------------------------------------------


def count_edge_failures(image, output) -> int:
    """Interior lines that differ from ``reference_sobel`` (all of them
    when the run produced no output)."""
    reference = reference_sobel(image)
    lines = range(1, len(image) - 1)
    if output is None:
        return len(lines)
    return sum(1 for y in lines if list(output[y]) != reference[y])


class EdgeDetection(Workload):
    """The paper's Figure 10 application on the standard 2x2 platform."""

    def __init__(self, seed: int, height: int = 20, width: int = 48):
        rng = random.Random(seed)
        t_start = perf_counter()
        self.image = [
            [rng.randrange(256) for _ in range(width)] for _ in range(height)
        ]
        self.session = MultiNoCPlatform.standard().launch()
        self.sim = self.session.sim
        self.stats = self.session.system.stats
        self.processors = self.session.system.processors
        self.output = None
        t_built = perf_counter()
        self.program = worker_program()
        self._elaborate(t_start, t_built, perf_counter())

    def inputs(self):
        return {"image": self.image, "program": self.program.segments}

    def run(self) -> None:
        app = EdgeDetectionApp(
            self.session.host, processors=list(EDGE_WORKERS), program=self.program
        )
        try:
            app.deploy()
            result = app.run(self.image, max_cycles_per_line=EDGE_LINE_BUDGET)
        except (HostTimeout, SimulationTimeout):
            return
        self.output = result.output

    def check(self):
        return len(self.image) - 2, count_edge_failures(self.image, self.output)


# -- sea of processors ------------------------------------------------------


def sea_worker(pid: int, n_procs: int, chunk: int, first_value: int, successor_base) -> str:
    """Chain-reduction worker: sum this worker's chunk, then add the
    successor's accumulated total read through the NUMA window.

    Kept here, not imported from ``examples/sea_of_processors.py``, so an
    edit to the example cannot change the workload.  ``first_value``
    shifts the summed range; the instruction count does not depend on it.
    """
    first = first_value + (pid - 1) * chunk
    last = first + chunk - 1
    reduce_part = ""
    if pid < n_procs:
        reduce_part = f"""
        LDI  R3, {pid + 1}
        LDI  R2, 0xFFFE
        ST   R3, R2, R0      ; wait for P{pid + 1}
        LDI  R2, {successor_base + RESULT_ADDR}
        LD   R4, R2, R0      ; successor's accumulated total (NUMA read)
        ADD  R5, R5, R4
        LDI  R2, {RESULT_ADDR}
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
summed: LDI  R2, {RESULT_ADDR}
        ST   R5, R2, R0      ; publish the partial for my predecessor
{reduce_part}{finish}
"""


def sea_expected(n_procs: int, chunk: int, first_value: int):
    """Word each worker holds at ``RESULT_ADDR`` when the chain is done:
    the sum of its own and every later worker's chunk, mod 2^16."""
    totals = {}
    running = 0
    for pid in range(n_procs, 0, -1):
        first = first_value + (pid - 1) * chunk
        running += sum(range(first, first + chunk))
        totals[pid] = running & 0xFFFF
    return totals


class SeaOfProcessors(Workload):
    """Many R8 workers on a large mesh, loaded serially by the host."""

    def __init__(
        self,
        seed: int,
        topology: str = "mesh:16x16",
        n_procs: int = 64,
        chunk: int = 50,
    ):
        self.n_procs, self.chunk = n_procs, chunk
        self.first_value = random.Random(seed).randrange(
            1, 0x10000 - n_procs * chunk
        )
        t_start = perf_counter()
        self.session = MultiNoCPlatform(
            topology=topology, n_processors=n_procs
        ).launch()
        self.sim = self.session.sim
        self.stats = self.session.system.stats
        self.processors = self.session.system.processors
        t_built = perf_counter()
        system = self.session.system
        self.programs = {}
        for pid in range(1, n_procs + 1):
            base = system.numa_base(pid, pid + 1) if pid < n_procs else None
            if pid < n_procs and base is None:
                raise RuntimeError(f"no NUMA window from P{pid} to P{pid + 1}")
            source = sea_worker(pid, n_procs, chunk, self.first_value, base)
            self.programs[pid] = Program.from_source(source, name=f"proc{pid}")
        self._elaborate(t_start, t_built, perf_counter())

    def inputs(self):
        return {pid: p.obj.segments for pid, p in self.programs.items()}

    def run(self) -> None:
        session = self.session
        try:
            session.host.sync()
            for pid, program in self.programs.items():
                session.start(pid, program)
            session.wait_all_halted(max_cycles=SEA_BUDGET)
            self.sim.step(SEA_DRAIN)
        except (HostTimeout, SimulationTimeout):
            pass

    def check(self):
        expected = sea_expected(self.n_procs, self.chunk, self.first_value)
        wrong = {
            pid
            for pid, value in expected.items()
            if self.processors[pid].dump(RESULT_ADDR, 1)[0] != value
        }
        if self.session.host.monitor(1).printf_values != [expected[1]]:
            wrong.add(1)
        return self.n_procs, len(wrong)


#: name -> (class, full-size keyword arguments, tiny-size keyword arguments)
WORKLOADS = {
    "noc_uniform_8x8": (NocTraffic, {}, {"topology": "mesh:3x3", "duration": 60}),
    "noc_hotspot_8x8": (
        NocTraffic,
        {"hotspot_node": (0, 0), "rate": 0.01, "duration": 400},
        {"topology": "mesh:3x3", "hotspot_node": (0, 0), "rate": 0.05, "duration": 60},
    ),
    "edge_detection_2x2": (EdgeDetection, {}, {"height": 4, "width": 8}),
    "sea_16x16": (SeaOfProcessors, {}, {"topology": "mesh:3x3", "n_procs": 3, "chunk": 5}),
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Set up workload *name* (the timed set-up of one repetition)."""
    cls, full, small = WORKLOADS[name]
    return cls(seed, **(small if tiny else full))

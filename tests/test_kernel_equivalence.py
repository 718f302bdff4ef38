"""Strict lock-step vs quiescence-aware kernel equivalence.

The quiescent scheduler skips evals that are provably no-ops and
fast-forwards fully idle spans, so every architecturally visible result
— cycle counts, memory images, printf transcripts, telemetry event
streams — must match the legacy evaluate-everything loop bit for bit.
These tests run the same workload under ``Simulator(strict_lockstep=
True)`` (the CLI's ``--no-idle-skip``) and the default quiescent path
and diff everything.
"""

import random

import pytest

from repro.apps import EdgeDetectionApp, reference_sobel
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.core import MultiNoCPlatform
from repro.noc.network import HermesNetwork
from repro.sim import Component, Simulator


def _events(sink):
    """Telemetry events as a comparable list (order-preserving)."""
    return [(e.ph, e.name, e.track, e.ts, e.dur, e.args) for e in sink.events]


# ---------------------------------------------------------------------------
# Scenario 1: edge detection (host I/O + remote memory + compute)
# ---------------------------------------------------------------------------


def _edge_image(height=4, width=16, seed=7):
    rng = random.Random(seed)
    return [[rng.randrange(256) for _ in range(width)] for _ in range(height)]


def _run_edge(strict):
    session = MultiNoCPlatform.standard().launch(
        telemetry=True, strict_lockstep=strict
    )
    app = EdgeDetectionApp(session.host, processors=[1, 2])
    app.deploy()
    result = app.run(_edge_image())
    state = {"cycle": session.sim.cycle, "output": result.output}
    for pid in (1, 2):
        proc = session.system.processor(pid)
        state[f"mem{pid}"] = proc.banks.dump()
        cpu = proc.cpu
        state[f"cpu{pid}"] = (
            cpu.instructions_retired,
            cpu.cycles_active,
            cpu.cycles_stalled,
            cpu.state.pc,
            list(cpu.state.regs),
        )
    state["events"] = _events(session.telemetry)
    return state


class TestEdgeDetectionEquivalence:
    def test_bit_identical_run(self):
        strict = _run_edge(strict=True)
        quiescent = _run_edge(strict=False)
        assert strict["output"] == reference_sobel(_edge_image())
        for key in strict:
            assert strict[key] == quiescent[key], f"{key} diverged"


# ---------------------------------------------------------------------------
# Scenario 2: wait/notify producer-consumer synchronisation
# ---------------------------------------------------------------------------

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


def _run_sync(strict):
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    session.host.sync()
    session.start(2, CONSUMER)
    session.start(1, PRODUCER)
    session.wait_all_halted(max_cycles=5_000_000)
    session.sim.step(3000)  # drain the serial link
    p1, p2 = (session.system.processor(n).cpu for n in (1, 2))
    return {
        "cycle": session.sim.cycle,
        # the cycle-stamped printf transcript, not just the values
        "printfs": list(session.host.monitor(2).printfs),
        "stalls": (p1.cycles_stalled, p2.cycles_stalled),
        "retired": (p1.instructions_retired, p2.instructions_retired),
    }


class TestWaitNotifyEquivalence:
    def test_bit_identical_run(self):
        strict = _run_sync(strict=True)
        quiescent = _run_sync(strict=False)
        expected = [
            sum(b * BATCH_WORDS + i for i in range(BATCH_WORDS)) & 0xFFFF
            for b in range(BATCHES)
        ]
        assert [v for _, v in strict["printfs"]] == expected
        assert strict == quiescent


PRINTF_PROG = """
        CLR  R0
        LDI  R1, 40
        LDL  R2, 1
loop:   SUB  R1, R1, R2
        JMPZD done
        JMP  loop
done:   LDI  R4, 0xFFFF
        ST   R1, R4, R0
        HALT
"""


class TestHostDrainEquivalence:
    """Regression: the host's I/O-drain predicate probes ``UartTx.busy``
    between cycles.  A transmitter sleeping through its final stop bit
    used to report stale busy state one cycle longer than lock-step,
    shifting every subsequent host transaction by a cycle."""

    def _run(self, strict):
        session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
        session.host.sync()
        session.run(1, PRINTF_PROG)
        session.sim.step(2000)
        return session.sim.cycle, list(session.host.monitor(1).printfs)

    def test_drain_cycle_exact(self):
        assert self._run(strict=True) == self._run(strict=False)


# ---------------------------------------------------------------------------
# Scenario 3: contended synthetic traffic on a bare mesh
# ---------------------------------------------------------------------------


def _run_traffic(strict, **cfg):
    net = HermesNetwork(3, 3)
    sim = net.make_simulator(strict_lockstep=strict)
    config = TrafficConfig(**cfg)
    sources = drive_traffic(net, config)
    sim.reset()
    sim.run_until(
        lambda: all(s.done for s in sources) and net.drained,
        max_cycles=config.duration * 100,
        label="traffic drain",
    )
    received = net.collect_received()
    return {
        "cycle": sim.cycle,
        "injected": sum(s.injected for s in sources),
        "delivered": len(received),
        "latencies": sorted(net.stats.latencies),
    }


class TestContendedTrafficEquivalence:
    def test_hotspot_contention(self):
        cfg = dict(rate=0.08, duration=3000, hotspot_node=(0, 0), seed=3)
        strict = _run_traffic(True, **cfg)
        quiescent = _run_traffic(False, **cfg)
        assert strict["delivered"] > 0
        assert strict == quiescent

    def test_bursty_uniform_with_idle_gaps(self):
        cfg = dict(rate=0.004, duration=12_000, pattern="uniform", seed=9)
        strict = _run_traffic(True, **cfg)
        quiescent = _run_traffic(False, **cfg)
        assert strict["delivered"] > 0
        assert strict == quiescent


# ---------------------------------------------------------------------------
# Scenario 6: a small sea of processors (mostly asleep, run_until heavy)
# ---------------------------------------------------------------------------

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


def _run_sea(strict, n_procs=8, chunk=10):
    session = MultiNoCPlatform(
        topology="mesh:4x4", n_processors=n_procs
    ).launch(strict_lockstep=strict)
    system = session.system
    session.host.sync()
    for pid in range(1, n_procs + 1):
        base = system.numa_base(pid, pid + 1) if pid < n_procs else None
        session.start(pid, _sea_worker(pid, n_procs, chunk, base))
    session.wait_all_halted(max_cycles=2_000_000)
    session.sim.step(2000)
    return {
        "cycle": session.sim.cycle,
        "results": {
            pid: system.processors[pid].dump(SEA_RESULT, 1)[0]
            for pid in range(1, n_procs + 1)
        },
        "printf": session.host.monitor(1).printf_values,
        "noc": system.stats.snapshot(),
    }


class TestSeaOfProcessorsEquivalence:
    def test_bit_identical_run(self):
        strict = _run_sea(strict=True)
        quiescent = _run_sea(strict=False)
        assert quiescent == strict
        assert strict["printf"] == [sum(range(1, 81)) & 0xFFFF]


# ---------------------------------------------------------------------------
# Kernel mechanics: fast-forward, wake_at, strided watchers, credits
# ---------------------------------------------------------------------------


class Beeper(Component):
    """Acts only every ``period`` cycles; sleeps (with a booked wake)
    in between.  Also counts its evals and credited skips so tests can
    check that eval + credit exactly covers every cycle."""

    def __init__(self, period=100):
        super().__init__("beeper")
        self.period = period
        self.beeps = []
        self.evals = 0
        self.credited = 0
        self._cycle = 0

    def eval(self, cycle):
        self._cycle = cycle
        self.evals += 1
        if cycle % self.period == 0:
            self.beeps.append(cycle)

    def is_quiescent(self):
        nxt = self._cycle + self.period - self._cycle % self.period
        self.wake_at(nxt)
        return True

    def on_wake(self, skipped):
        self.credited += skipped


class TestFastForward:
    def _run(self, strict, cycles=250):
        sim = Simulator(strict_lockstep=strict)
        beeper = Beeper()
        sim.add(beeper)
        watched = []
        sim.add_watcher(watched.append)
        strided = []
        sim.add_watcher(strided.append, stride=50)
        sim.step(cycles)
        return sim, beeper, watched, strided

    def test_quiescent_skips_but_beeps_identically(self):
        _, strict, w_strict, _ = self._run(strict=True)
        sim, quiet, w_quiet, _ = self._run(strict=False)
        assert quiet.beeps == strict.beeps == [0, 100, 200]
        # lock-step evaluates every cycle; the quiescent kernel ran 3
        # evals and credited the skipped cycles up to the last wake
        # (cycles 201..249 are still pending — credit is lazy, handed
        # over on the next wake so partial spans stay exact)
        assert strict.evals == 250
        assert quiet.evals == 3
        assert quiet.evals + quiet.credited == 201
        # skipped spans (1, 100), (101, 200), (201, 250) are exclusive
        # of the landing cycle: 99 + 99 + 49 cycles
        assert (sim.ff_spans, sim.ff_cycles) == (3, 247)

    def test_watchers_fire_once_at_landing_cycle(self):
        _, _, watched, _ = self._run(strict=False)
        assert watched == [1, 100, 101, 200, 201, 250]

    def test_strided_watcher_replays_skipped_multiples(self):
        _, _, _, strict = self._run(strict=True)
        _, _, _, quiet = self._run(strict=False)
        # 50 and 150 are replayed inside spans; 100, 200 and 250 are
        # landing cycles and must not be called twice
        assert quiet == strict == [50, 100, 150, 200, 250]

    def test_deferred_credit_lands_on_next_wake(self):
        sim = Simulator()
        beeper = Beeper()
        sim.add(beeper)
        sim.step(250)  # asleep at the boundary, cycles 201..249 pending
        sim.step(51)  # next wake at 300 hands the pending span over
        assert beeper.beeps == [0, 100, 200, 300]
        assert beeper.evals + beeper.credited == 301  # covers 0..300

    def test_strict_mode_watchers_fire_every_cycle(self):
        sim, _, watched, _ = self._run(strict=True, cycles=10)
        assert watched == list(range(1, 11))
        assert sim.ff_spans == 0

    def test_run_until_fast_forwards_idle_sim(self):
        sim = Simulator()
        beeper = Beeper(period=10_000)
        sim.add(beeper)
        sim.step(1)  # first eval, then asleep until 10_000
        consumed = sim.run_until(
            lambda: len(beeper.beeps) >= 2, max_cycles=100_000
        )
        assert beeper.beeps == [0, 10_000]
        assert sim.cycle == 10_001
        assert consumed == 10_000

    def test_run_until_timeout_reports_cycle(self):
        from repro.sim.kernel import SimulationTimeout

        sim = Simulator()
        sim.add(Beeper(period=5))
        with pytest.raises(SimulationTimeout, match="within 50 cycles"):
            sim.run_until(lambda: False, max_cycles=50, label="never")
        assert sim.cycle == 50


class TestElaborationInvalidation:
    def test_adopt_and_disown_wires_invalidate(self):
        sim = Simulator()
        beeper = Beeper()
        sim.add(beeper)
        sim.step(1)
        assert not sim._needs_elab
        w = beeper.wire("late")
        beeper.disown_wires([w])
        assert sim._needs_elab
        sim.step(1)  # re-elaborates without the wire
        assert not sim._needs_elab

    def test_child_changes_invalidate(self):
        sim = Simulator()
        parent = Component("parent")
        beeper = Beeper()
        parent.add_child(beeper)
        sim.add(parent)
        sim.step(1)
        other = Beeper()
        parent.add_child(other)
        assert sim._needs_elab
        sim.step(1)
        parent.remove_child(other)
        assert sim._needs_elab


class Ticker(Component):
    """Never quiescent: logs every cycle it is evaluated."""

    def __init__(self, name="ticker"):
        super().__init__(name)
        self.evals = []

    def eval(self, cycle):
        self.evals.append(cycle)


class TestMidRunElaboration:
    """Wiring invalidated inside a run takes effect at the next cycle."""

    @pytest.mark.parametrize("strict", [True, False])
    def test_component_added_by_watcher_mid_step(self, strict):
        sim = Simulator(strict_lockstep=strict)
        sim.add(Ticker())
        late = Ticker("late")

        def add_late(cycle):
            if cycle == 5:
                sim.add(late)

        sim.add_watcher(add_late)
        sim.step(20)
        assert late.evals == list(range(5, 20))

    @pytest.mark.parametrize("strict", [True, False])
    def test_child_added_by_watcher_mid_run_until(self, strict):
        sim = Simulator(strict_lockstep=strict)
        parent = Component("parent")
        parent.add_child(Ticker())
        sim.add(parent)
        late = Ticker("late")

        def add_late(cycle):
            if cycle == 5:
                parent.add_child(late)

        sim.add_watcher(add_late)
        sim.run_until(lambda: len(late.evals) >= 3, max_cycles=100)
        assert late.evals == [5, 6, 7]
        assert sim.cycle == 8


# ---------------------------------------------------------------------------
# Wake order: the run list must keep lock-step's mid-cycle semantics
# ---------------------------------------------------------------------------


class Poker(Component):
    """Works one cycle per poke, and pokes other units on a plan.

    ``plan`` maps a cycle to the units this one pokes during its eval
    there; ``log`` collects ``(cycle, name)`` for every cycle of work.
    Sleeps whenever no poke is pending, booking its next planned cycle.
    """

    def __init__(self, name, log):
        super().__init__(name)
        self.log = log
        self.plan = {}
        self.pending = 1  # evaluate the first cycle like everyone else
        self.evals = []
        self._cycle = 0

    def poke(self):
        self.pending += 1
        self.wake()

    def eval(self, cycle):
        self._cycle = cycle
        self.evals.append(cycle)
        if self.pending:
            self.pending -= 1
            self.log.append((cycle, self.name))
        for unit in self.plan.get(cycle, ()):
            unit.poke()

    def is_quiescent(self):
        if self.pending:
            return False
        later = [c for c in self.plan if c > self._cycle]
        if later:
            self.wake_at(min(later))
        return True


def _poke_run(strict, plan, cycles=14, watcher=None):
    """Four pokers; *plan* maps (poker, cycle) to the pokers it pokes.
    Returns the work log and each poker's eval cycles."""
    sim = Simulator(strict_lockstep=strict)
    log = []
    units = [Poker(f"u{i}", log) for i in range(4)]
    for unit in units:
        sim.add(unit)
    for (src, cycle), targets in plan.items():
        units[src].plan[cycle] = [units[t] for t in targets]
    if watcher is not None:
        sim.add_watcher(lambda cycle: watcher(sim, cycle))
    sim.step(cycles)
    return log, [u.evals for u in units]


WAKE_PLANS = {
    "later": {(0, 10): [2]},
    "earlier": {(3, 10): [1]},
    # u1 works at 10 (poked at 9), sleeps at its own eval, and u3 pokes
    # it again later in cycle 10
    "rewoken": {(3, 9): [1], (3, 10): [1]},
}


class TestWakeOrder:
    def _both(self, plan):
        strict_log, _ = _poke_run(True, plan)
        log, evals = _poke_run(False, plan)
        assert log == strict_log
        return log, evals

    def test_later_unit_woken_mid_cycle_works_that_cycle(self):
        log, _ = self._both(WAKE_PLANS["later"])
        assert (10, "u2") in log and (11, "u2") not in log

    def test_earlier_unit_woken_mid_cycle_works_next_cycle(self):
        log, _ = self._both(WAKE_PLANS["earlier"])
        assert (11, "u1") in log and (10, "u1") not in log

    def test_unit_asleep_and_woken_in_one_cycle_runs_once_next(self):
        log, evals = self._both(WAKE_PLANS["rewoken"])
        assert (10, "u1") in log and (11, "u1") in log
        assert evals[1].count(10) == evals[1].count(11) == 1

    @pytest.mark.parametrize("plan", sorted(WAKE_PLANS))
    def test_run_list_matches_awake_flags_at_every_boundary(self, plan):
        mismatches = []

        def check(sim, cycle):
            awake = [u for u in sim._units if u._awake]
            if sim._run + sim._woken != awake:
                mismatches.append(cycle)

        _poke_run(False, WAKE_PLANS[plan], watcher=check)
        assert mismatches == []

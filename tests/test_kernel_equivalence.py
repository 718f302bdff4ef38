"""Kernel mechanics of the quiescence-aware scheduler.

Fast-forward, booked wakes, strided watchers, idle credit, mid-run
elaboration and wake order, each checked on tiny hand-built components
against strict lock-step (``Simulator(strict_lockstep=True)``).
Workload-level bit-identity across kernel modes, observers and
checkpoint splits is the oracle in ``tests/test_equivalence.py``; the
workload scenarios at the end of this file are its pinned draws.
"""

import pytest

from repro.apps import EdgeDetectionApp, reference_sobel
from repro.core import MultiNoCPlatform
from repro.sim import SLEEP, Component, Simulator
from repro.system.processor_ip import ProcessorIp

from .test_equivalence import (
    BURSTY,
    EDGE,
    EDGE_SPIN,
    HOTSPOT,
    PRINTF_BOARD,
    SEA,
    SYNC_BOARD,
    Draw,
    _edge_image,
    assert_matches_lockstep,
)


# ---------------------------------------------------------------------------
# Kernel mechanics: fast-forward, timed wakes, strided watchers, credits
# ---------------------------------------------------------------------------


class Beeper(Component):
    """Acts only every ``period`` cycles; sleeps until the next multiple
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
        return cycle + self.period - cycle % self.period

    def credit(self, to_cycle):
        skipped = to_cycle - 1 - self._cycle
        if skipped > 0:
            self.credited += skipped
            self._cycle = to_cycle - 1


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
    Sleeps whenever no poke is pending, until its next planned cycle.
    """

    def __init__(self, name, log):
        super().__init__(name)
        self.log = log
        self.plan = {}
        self.pending = 1  # evaluate the first cycle like everyone else
        self.evals = []

    def poke(self):
        self.pending += 1
        self.wake()

    def eval(self, cycle):
        self.evals.append(cycle)
        if self.pending:
            self.pending -= 1
            self.log.append((cycle, self.name))
        for unit in self.plan.get(cycle, ()):
            unit.poke()
        if self.pending:
            return None
        return min((c for c in self.plan if c > cycle), default=SLEEP)


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


class Marked(Component):
    """Works at the cycle after each mark another unit's eval makes, as
    a network interface does after the fabric's; sleeps otherwise."""

    def __init__(self, name, log):
        super().__init__(name)
        self.log = log
        self.due = SLEEP
        self.evals = []

    def mark(self, cycle):
        self.due = min(self.due, cycle + 1)
        if self._sched is not None and not self._awake:
            self._kernel.wake_next(self)

    def eval(self, cycle):
        self.evals.append(cycle)
        if self.due <= cycle:
            self.due = SLEEP
            self.log.append((cycle, self.name))
        return None if self.due != SLEEP else SLEEP


class Marker(Component):
    def __init__(self, targets, at):
        super().__init__("marker")
        self.targets, self.at = targets, at

    def eval(self, cycle):
        if cycle == self.at:
            for target in self.targets:
                target.mark(cycle)
        return SLEEP if cycle >= self.at else self.at


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

    @pytest.mark.parametrize("strict", [False, True])
    def test_wake_next_runs_a_sleeper_at_the_next_cycle_only(self, strict):
        """A unit marked during another's eval at cycle 10 works at 11,
        whether it comes before or after the marker, and a sleeping one
        is not evaluated at 10."""
        log = []
        early, late = Marked("early", log), Marked("late", log)
        sim = Simulator(strict_lockstep=strict)
        for unit in (early, Marker([early, late], at=10), late):
            sim.add(unit)
        sim.step(14)
        assert log == [(11, "early"), (11, "late")]
        if not strict:
            assert early.evals == late.evals == [0, 11]

    @pytest.mark.parametrize("plan", sorted(WAKE_PLANS))
    def test_run_list_matches_awake_flags_at_every_boundary(self, plan):
        mismatches = []

        def check(sim, cycle):
            awake = [u for u in sim._units if u._awake]
            if sim._run + sim._woken != awake:
                mismatches.append(cycle)

        _poke_run(False, WAKE_PLANS[plan], watcher=check)
        assert mismatches == []


# ---------------------------------------------------------------------------
# Workload scenarios: pinned draws of the equivalence oracle
# ---------------------------------------------------------------------------


class TestEdgeDetectionEquivalence:
    def test_bit_identical_run(self):
        """Host I/O, remote memory and compute; output == reference Sobel."""
        assert_matches_lockstep(EDGE)

    def test_untraced_workers_spin_sleep(self):
        """Untraced workers sleep through their FLAG poll loops; the run
        is split and resumed from lock-step into the quiescent kernel."""
        assert_matches_lockstep(EDGE_SPIN)

    def test_a_flit_wakes_a_spinning_worker_at_the_next_cycle(self, monkeypatch):
        """The fabric marks a worker's NI and wakes the worker for the
        next cycle, not the cycle it marks it, so a worker asleep in its
        poll loop is evaluated no earlier than a wire change, seen from
        the next cycle on, would have woken it.  A 4x16 image at baud divisor 2 takes
        6,475 Processor IP evals over 19,967 cycles; the NI's boundary
        wires took 6,902, and a same-cycle wake 6,922."""
        evals = [0]
        real = ProcessorIp.eval

        def counted(ip, cycle):
            evals[0] += 1
            return real(ip, cycle)

        monkeypatch.setattr(ProcessorIp, "eval", counted)
        session = MultiNoCPlatform.standard().launch(baud_divisor=2)
        session.host.sync()
        app = EdgeDetectionApp(session.host, processors=[1, 2])
        app.deploy()
        image = _edge_image()
        assert app.run(image).output == reference_sobel(image)
        session.sim.step(2000)
        assert session.sim.cycle == 19_967
        assert evals[0] <= 6_500, evals[0]


class TestWaitNotifyEquivalence:
    def test_bit_identical_run(self):
        """Producer/consumer wait/notify: stalls, retired counts and the
        cycle-stamped checksum transcript."""
        assert_matches_lockstep(Draw(SYNC_BOARD))


class TestHostDrainEquivalence:
    """Regression: the host's I/O-drain predicate probes ``UartTx.busy``
    between cycles.  A transmitter sleeping through its final stop bit
    used to report stale busy state one cycle longer than lock-step,
    shifting every subsequent host transaction by a cycle."""

    def test_drain_cycle_exact(self):
        assert_matches_lockstep(Draw(PRINTF_BOARD))


class TestContendedTrafficEquivalence:
    def test_hotspot_contention(self):
        assert_matches_lockstep(HOTSPOT)

    def test_bursty_uniform_with_idle_gaps(self):
        assert_matches_lockstep(BURSTY)


class TestSeaOfProcessorsEquivalence:
    def test_bit_identical_run(self):
        """Eight chain-reduction workers on mesh:4x4, mostly asleep."""
        assert_matches_lockstep(SEA)

"""Spin sleep: a Processor IP polling unchanged local memory sleeps.

A core that comes back to the state it had at its previous backward
jump, with nothing changed that it reads, repeats the same loop
iteration until a flit reaches its NI or the IP is mutated directly.
The IP sleeps through such a poll loop and credits it one period at a
time.  Every test runs the same scenario in strict lock-step, where
nothing sleeps, and compares the cycle, PC, registers and the three
core counters.
"""

import pytest

from repro import MultiNoCPlatform
from repro.debug import SystemDebugger
from repro.noc import services
from repro.r8 import assemble
from repro.system import MultiNoC
from repro.telemetry import HealthMonitor, LiveStream

FLAG = 0x100
OUT = 0x101

#: the edge worker's wait: a 12-cycle loop at PCs 1 to 5
POLL = f"""
        CLR  R0
poll:   LDI  R2, {FLAG}
        LD   R1, R2, R0
        OR   R1, R1, R1
        JMPZD poll
        LDI  R3, {OUT}
        ST   R1, R3, R0
        HALT
"""
PERIOD = 12
LOOP_PCS = range(1, 6)

#: cycles after activation by which the quiescent run sleeps in the loop
SPINNING = 200


def _spinner(strict):
    """P1 of a bare 2x2 system, polling FLAG from cycle 0."""
    system = MultiNoC()
    sim = system.make_simulator(strict_lockstep=strict)
    proc = system.processor(1)
    for origin, words in assemble(POLL).segments:
        proc.load(words, origin)
    proc.cpu.activate()
    return system, sim, proc


def _facts(sim, proc):
    cpu = proc.cpu
    return (
        sim.cycle,
        cpu.pc,
        list(cpu.state.regs),
        cpu.cycles_active,
        cpu.instructions_retired,
        cpu.cycles_stalled,
    )


def _remote_flag_write(system, proc):
    """P2 writes 7 into P1's FLAG through the NoC."""
    system.processor(2).ni.send_packet(
        services.encode_write(proc.noc_address, FLAG, [7])
    )


def _finish(sim, proc):
    sim.run_until(lambda: proc.cpu.halted, max_cycles=20_000)
    assert proc.dump(OUT, 1) == [7]
    return _facts(sim, proc)


def _is_spin_sleeping(proc):
    return not proc._awake and proc._spin is not None


class TestDetection:
    def test_poll_loop_sleeps_with_its_period(self):
        _, sim, proc = _spinner(strict=False)
        sim.step(SPINNING)
        assert _is_spin_sleeping(proc)
        assert proc._spin == (PERIOD, 5, 0)

    def test_reads_are_current_without_settle(self):
        """Counters, PC and FSM state read mid-sleep, with no settle,
        equal lock-step's at every cycle of three loop periods; reading
        them leaves the core asleep."""
        runs = [_spinner(strict) for strict in (True, False)]
        for cycle in range(SPINNING + 3 * PERIOD):
            for _, sim, _ in runs:
                sim.step(1)
            (_, _, ref), (_, _, proc) = runs
            for cpu in (ref.cpu, proc.cpu):
                assert cpu.cycles_active == cycle + 1
            assert proc.cpu.progress == ref.cpu.progress
            assert proc.cpu.cycles_stalled == ref.cpu.cycles_stalled
            assert proc.probe_state() == ref.probe_state()
            if cycle >= SPINNING:
                assert _is_spin_sleeping(proc)

    def test_restore_finds_the_loop_again_within_two_iterations(self):
        """The spin record is not checkpointed: a restored spinner wakes
        and sleeps again within two loop iterations."""
        _, sim, proc = _spinner(strict=False)
        sim.step(SPINNING)
        doc = sim.snapshot()
        _, sim2, proc2 = _spinner(strict=False)
        sim2.restore(doc)
        assert proc2._awake
        sim.step(2 * PERIOD)
        sim2.step(2 * PERIOD)
        assert _is_spin_sleeping(proc2)
        assert _facts(sim2, proc2) == _facts(sim, proc)


class TestExactness:
    @pytest.mark.parametrize("phase", range(PERIOD))
    def test_remote_write_landing_at_every_phase(self, phase):
        """The write that ends the poll lands at each of the loop's
        twelve phases."""
        results = []
        for strict in (True, False):
            system, sim, proc = _spinner(strict)
            sim.step(SPINNING + phase)
            if not strict:
                assert _is_spin_sleeping(proc)
            _remote_flag_write(system, proc)
            results.append(_finish(sim, proc))
        assert results[0] == results[1]

    @pytest.mark.parametrize("every", range(1, PERIOD + 2))
    def test_settling_in_pieces(self, every):
        """``Simulator.settle`` every k cycles credits a sleep span in
        pieces; each piece leaves the core where lock-step has it."""
        seen = {}
        for strict in (True, False):
            system, sim, proc = _spinner(strict)
            log = seen[strict] = []

            def settle(cycle, sim=sim, proc=proc, log=log):
                sim.settle()
                log.append((cycle, proc.cpu.counters(), proc.cpu._state.pc))

            sim.add_watcher(settle, stride=every)
            sim.step(SPINNING + every)
            _remote_flag_write(system, proc)
            log.append(_finish(sim, proc))
        assert seen[False] == seen[True]

    @pytest.mark.parametrize("phase", range(PERIOD))
    def test_direct_load_into_the_polled_word(self, phase):
        """``ProcessorIp.load`` credits the open span with the old FLAG
        and wakes the core, which then reads the new one."""
        results = []
        for strict in (True, False):
            _, sim, proc = _spinner(strict)
            sim.step(SPINNING + phase)
            if not strict:
                assert _is_spin_sleeping(proc)
            proc.load([7], FLAG)
            results.append(_finish(sim, proc))
        assert results[0] == results[1]

    @pytest.mark.parametrize("poke", ["activate", "reset"])
    def test_direct_core_control(self, poke):
        """Activating or resetting the core directly, not by packet,
        first credits the loop it slept in."""
        results = []
        for strict in (True, False):
            _, sim, proc = _spinner(strict)
            sim.step(SPINNING + 7)
            getattr(proc.cpu, poke)()
            sim.step(3 * PERIOD)
            results.append(_facts(sim, proc))
        assert results[0] == results[1]

    @pytest.mark.parametrize("phase", range(PERIOD))
    @pytest.mark.parametrize("reg, value", [("pc", 1), ("r9", 0x1234)])
    def test_poke_through_state(self, phase, reg, value):
        """Writing the PC or a register through ``cpu.state`` wakes the
        spinner, and the detector does not mistake the poked iteration
        for a loop period."""
        results = []
        for strict in (True, False):
            _, sim, proc = _spinner(strict)
            sim.step(SPINNING + phase)
            state = proc.cpu.state
            if reg == "pc":
                state.pc = value
            else:
                state.regs[9] = value
            sim.step(5 * PERIOD)
            results.append(_facts(sim, proc))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Observers on a spinning core, on the full platform
# ---------------------------------------------------------------------------


def _session(strict):
    session = MultiNoCPlatform.standard().launch(
        baud_divisor=2, strict_lockstep=strict
    )
    session.host.sync()
    session.start(1, POLL)
    return session


class TestObservers:
    @pytest.mark.parametrize(
        "arm, hit",
        [
            ("break 1 3", "breakpoint proc1 pc=0003"),
            (f"watch 1 {FLAG:#x} r", "read watchpoint proc1@0100"),
            ("expr polling proc1['pc'] == 4", "expression 'polling'"),
        ],
    )
    def test_break_condition_in_the_poll_loop_hits_at_lockstep_cycles(
        self, arm, hit
    ):
        hits = {}
        for strict in (True, False):
            session = _session(strict)
            debugger = SystemDebugger(session)
            debugger.execute(f"step {SPINNING}")
            proc = session.system.processor(1)
            if not strict:
                assert _is_spin_sleeping(proc)
            debugger.execute(arm)
            assert proc.observed
            hits[strict] = [
                debugger.execute("continue 100") for _ in range(4)
            ]
        assert hits[False] == hits[True]
        assert all(hit in out for out in hits[True])

    @pytest.mark.parametrize(
        "arm, disarm",
        [
            ("break 1 3", "unbreak 1 3"),
            (f"watch 1 {FLAG:#x} r", f"unwatch 1 {FLAG:#x}"),
        ],
    )
    def test_clearing_the_last_condition_lets_the_core_sleep(
        self, arm, disarm
    ):
        session = _session(strict=False)
        proc = session.system.processor(1)
        debugger = SystemDebugger(session)
        debugger.execute(arm)
        session.sim.step(SPINNING)
        assert proc._awake
        debugger.execute(disarm)
        assert not proc.observed
        session.sim.step(2 * PERIOD)
        assert _is_spin_sleeping(proc)

    def test_stall_watchdog_stays_quiet_on_a_spinning_core(self):
        monitor = HealthMonitor(
            check_interval=256, cpu_stall_cycles=1000, on_violation="record"
        )
        session = _session(strict=False)
        monitor.attach(session.sim, session.system, host=session.host)
        session.sim.step(20_000)
        assert _is_spin_sleeping(session.system.processor(1))
        assert monitor.checks_run > 0
        assert [v.kind for v in monitor.violations] == []

    def test_live_frames_see_the_lockstep_retired_deltas(self):
        cpus = {}
        for strict in (True, False):
            session = _session(strict)
            stream = LiveStream(stride=100)
            stream.attach(session.sim, session.system)
            frames = []
            stream.subscribe(frames.append)
            session.sim.step(3000)
            cpus[strict] = [
                (f["cycle"], f["cpus"]["proc1"]["retired"],
                 f["cpus"]["proc1"]["ipc"], f["cpus"]["proc1"]["pc"])
                for f in frames
            ]
            if not strict:
                assert _is_spin_sleeping(session.system.processor(1))
        assert cpus[False] == cpus[True]
        retired = [r for _, r, _, _ in cpus[True]]
        assert retired == sorted(retired) and retired[-1] > retired[0]


def test_spin_sleep_is_off_under_telemetry():
    """A sink samples the PC every cycle: the core stays evaluated."""
    session = MultiNoCPlatform.standard().launch(
        baud_divisor=2, telemetry=True
    )
    session.host.sync()
    session.start(1, POLL)
    session.sim.step(SPINNING)
    proc = session.system.processor(1)
    assert proc._awake
    assert proc.cpu.pc in LOOP_PCS

"""Kernel scheduling benchmark: quiescence-aware vs strict lock-step.

The simulator's quiescence-aware scheduler (see DESIGN.md, "Simulation
kernel") only evaluates components that have work and fast-forwards the
cycle counter over fully idle spans.  This benchmark measures the
regimes that bound its behaviour (the saturated fabric, where nothing
can sleep, is timed by the ledger's ``noc_uniform_8x8``):

* **idle** — a launched platform sitting quiet: every unit is asleep,
  the kernel should fast-forward and the cycles/second rate must be at
  least 2x the strict lock-step rate (CI gate; in practice it is
  orders of magnitude higher).
* **mixed** — bursty traffic with idle gaps, the realistic middle.
* **sea** — one busy unit among 10 or among 1,000 sleeping ones: the
  kernel walks only awake units, so per-cycle cost must not grow with
  the number of sleepers (CI gate: at most 2x).
* **edge detection** — the paper's Figure 10 flow: the quiescent kernel
  must evaluate at least 3x fewer units than lock-step (CI gate, counted
  in an untimed pass).

The traffic and edge-detection scenarios also double as equivalence
checks: results must match bit-for-bit across modes.
"""

import time

from conftest import report
from repro import experiments
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.core import MultiNoCPlatform
from repro.noc.network import HermesNetwork
from repro.sim import SLEEP, Component, Simulator

IDLE_CYCLES = 100_000
SEA_CYCLES = 20_000


def _rate(cycles, seconds):
    return cycles / seconds if seconds > 0 else float("inf")


def _time_idle(strict):
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    sim = session.sim
    start = sim.cycle
    t0 = time.perf_counter()
    sim.step(IDLE_CYCLES)
    dt = time.perf_counter() - t0
    assert sim.cycle - start == IDLE_CYCLES
    return dt


def _time_traffic(strict, rate, duration):
    net = HermesNetwork(3, 3)
    sim = net.make_simulator(strict_lockstep=strict)
    sources = drive_traffic(
        net, TrafficConfig(pattern="uniform", rate=rate, duration=duration)
    )
    sim.reset()
    t0 = time.perf_counter()
    sim.run_until(
        lambda: all(s.done for s in sources) and net.drained,
        max_cycles=duration * 50,
        label="traffic drain",
    )
    dt = time.perf_counter() - t0
    delivered = len(net.collect_received())
    return dt, sim.cycle, delivered


def test_kernel_idle_fast_forward(benchmark):
    """Idle platform: the quiescent kernel must be >=2x faster (CI gate)."""

    def both():
        return _time_idle(strict=True), _time_idle(strict=False)

    strict_dt, quiescent_dt = benchmark(both)
    strict_rate = _rate(IDLE_CYCLES, strict_dt)
    quiescent_rate = _rate(IDLE_CYCLES, quiescent_dt)
    speedup = quiescent_rate / strict_rate
    report(
        benchmark,
        "Kernel idle throughput (fast-forward)",
        [
            ("strict lock-step (cycles/s)", "(baseline)", f"{strict_rate:,.0f}"),
            ("quiescent (cycles/s)", ">=2x strict", f"{quiescent_rate:,.0f}"),
            ("idle speedup", ">=2x (CI gate)", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 2.0, (
        f"quiescent idle stepping must be at least 2x strict lock-step, "
        f"got {speedup:.2f}x"
    )


def test_kernel_mixed_duty_cycle(benchmark):
    """Bursty traffic with idle gaps: the realistic regime in between."""

    def both():
        s = _time_traffic(strict=True, rate=0.002, duration=20_000)
        q = _time_traffic(strict=False, rate=0.002, duration=20_000)
        return s, q

    (s_dt, s_cyc, s_pkts), (q_dt, q_cyc, q_pkts) = benchmark(both)
    assert (s_cyc, s_pkts) == (q_cyc, q_pkts), "modes must agree bit-for-bit"
    speedup = _rate(q_cyc, q_dt) / _rate(s_cyc, s_dt)
    report(
        benchmark,
        "Kernel mixed duty cycle (bursts + idle gaps)",
        [
            ("packets delivered", "identical", f"{q_pkts} (both modes)"),
            ("strict (cycles/s)", "(baseline)", f"{_rate(s_cyc, s_dt):,.0f}"),
            ("quiescent (cycles/s)", "(faster)", f"{_rate(q_cyc, q_dt):,.0f}"),
            ("mixed speedup", ">1x", f"{speedup:.2f}x"),
        ],
    )
    assert speedup > 1.0, "idle gaps must make the quiescent path faster"


class _Busy(Component):
    """Never quiescent: evaluated every cycle."""

    def eval(self, cycle):
        self.last = cycle


class _Asleep(Component):
    """Asleep from its first eval on, until an input or a wake."""

    def eval(self, cycle):
        return SLEEP


def _us_per_cycle(n_sleeping, repeats=3):
    """Best-of-*repeats* host microseconds per ``step`` cycle with one
    busy unit and *n_sleeping* sleeping ones."""
    sim = Simulator()
    sim.add(_Busy("busy"))
    for i in range(n_sleeping):
        sim.add(_Asleep(f"idle{i}"))
    sim.step(1)  # elaborate; every sleeper goes to sleep at its eval
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        sim.step(SEA_CYCLES)
        best = min(best, time.perf_counter() - t0)
    return best / SEA_CYCLES * 1e6


def test_kernel_cost_independent_of_sleeping_units(benchmark):
    """One busy unit: 1,000 sleepers may cost at most 2x what 10 do."""

    def both():
        return _us_per_cycle(10), _us_per_cycle(1000)

    few, many = benchmark(both)
    ratio = many / few
    report(
        benchmark,
        "Kernel per-cycle cost, 1 busy unit among N sleeping",
        [
            ("N=10 (us/cycle)", "(baseline)", f"{few:.2f}"),
            ("N=1000 (us/cycle)", "~N=10", f"{many:.2f}"),
            ("N=1000 / N=10", "<=2x (CI gate)", f"{ratio:.2f}x"),
        ],
    )
    assert ratio <= 2.0, (
        f"per-cycle kernel cost must not grow with sleeping units, "
        f"got {ratio:.2f}x from 10 to 1000"
    )


def _evaluated(session):
    """Every router the fabric evaluates and every other schedulable
    unit (a component overriding ``eval`` with no such ancestor)."""
    mesh = session.system.mesh
    out = list(mesh.routers.values())

    def walk(comp):
        if comp is mesh:
            return
        if type(comp).eval is not Component.eval:
            out.append(comp)
            return
        for child in comp._children:
            walk(child)

    for top in session.sim._components:
        walk(top)
    return out


def edge_flow(strict, count_evals=False):
    """Launch, deploy and run the two-processor edge detection flow.

    Returns the final cycle, the output image, core 1's retirement and
    stall counters, and — with *count_evals* — how many times a router
    or another schedulable unit was evaluated.  Counting wraps each
    unit's ``eval`` on the instance, so only counting runs pay for it.
    """
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    evals = [0]
    if count_evals:
        for unit in _evaluated(session):
            def counted(cycle, _eval=unit.eval):
                evals[0] += 1
                _eval(cycle)

            unit.eval = counted
    result = experiments.edge_detection(session, [1, 2])
    cpu = session.system.processor(1).cpu
    counters = (
        cpu.instructions_retired,
        cpu.cycles_active,
        cpu.cycles_stalled,
    )
    return session.sim.cycle, result.output, counters, evals[0]


def test_quiescent_kernel_skips_work(benchmark):
    """The quiescence-aware kernel must evaluate at most a third of the
    units strict lock-step evaluates over the full edge detection flow
    (launch + deploy + run), with bit-identical results: same final
    cycle count, same output image, same per-core retirement/stall
    counters.  The host, serial bridge and routers sleep through the
    long serial transfers and the CPUs' local compute phases; lock-step
    evaluates all of them every cycle.

    Evaluations are counted in a pass of their own, so the counting
    wrapper never touches the timed runs; the wall-clock ratio of the
    timed runs is reported, not gated."""

    def timed(strict):
        t0 = time.perf_counter()
        edge_flow(strict)
        return time.perf_counter() - t0

    def both():
        # best-of-2 per mode to keep the ratio stable under CI noise
        strict_dt = min(timed(strict=True) for _ in range(2))
        quiet_dt = min(timed(strict=False) for _ in range(2))
        return strict_dt, quiet_dt

    s_dt, q_dt = benchmark(both)
    s_cycles, s_output, s_counters, s_evals = edge_flow(True, count_evals=True)
    q_cycles, q_output, q_counters, q_evals = edge_flow(False, count_evals=True)
    assert q_cycles == s_cycles, "cycle counts must match bit-for-bit"
    assert q_output == s_output, "output images must be identical"
    assert q_counters == s_counters, "CPU counters must be identical"
    skipped = s_evals / q_evals
    report(
        benchmark,
        "Quiescent kernel work skipped (edge detection)",
        [
            ("results identical across modes", "cycle-exact", True),
            ("cycles simulated", "(same in both modes)", s_cycles),
            ("strict lock-step unit evaluations", "(baseline)", s_evals),
            ("quiescent unit evaluations", "(fewer)", q_evals),
            ("evaluations skipped", ">=3x", f"{skipped:.2f}x"),
            ("strict lock-step wall clock (s)", "(informational)",
             f"{s_dt:.3f}"),
            ("quiescent wall clock (s)", "(informational)", f"{q_dt:.3f}"),
            ("wall-clock speedup", "(informational)", f"{s_dt / q_dt:.2f}x"),
        ],
    )
    assert skipped >= 3.0, (
        f"quiescent kernel must evaluate >=3x fewer units on edge "
        f"detection, got {skipped:.2f}x ({s_evals} vs {q_evals})"
    )


"""Kernel scheduling benchmark: quiescence-aware vs strict lock-step.

The simulator's quiescence-aware scheduler (see DESIGN.md, "Simulation
kernel") only evaluates components that have work and fast-forwards the
cycle counter over fully idle spans.  This benchmark measures the three
regimes that bound its behaviour:

* **idle** — a launched platform sitting quiet: every unit is asleep,
  the kernel should fast-forward and the cycles/second rate must be at
  least 2x the strict lock-step rate (CI gate; in practice it is
  orders of magnitude higher).
* **saturated** — a mesh under heavy synthetic traffic: nothing can
  sleep, so the quiescent path must not cost materially more than
  lock-step (its overhead is a few checks per cycle and per awake
  unit; the run list is only rebuilt in cycles where a unit slept or
  woke).
* **mixed** — bursty traffic with idle gaps, the realistic middle.
* **sea** — one busy unit among 10 or among 1,000 sleeping ones: the
  kernel walks only awake units, so per-cycle cost must not grow with
  the number of sleepers (CI gate: at most 2x).

All three scenarios also double as equivalence checks: delivered packet
counts and final cycle numbers must match bit-for-bit across modes.
"""

import time

from conftest import report
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.core import MultiNoCPlatform
from repro.noc.network import HermesNetwork
from repro.sim import Component, Simulator

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


def test_kernel_saturated_throughput(benchmark):
    """Saturated mesh: every unit busy, quiescent overhead must be small."""

    def both():
        s = _time_traffic(strict=True, rate=0.25, duration=2000)
        q = _time_traffic(strict=False, rate=0.25, duration=2000)
        return s, q

    (s_dt, s_cyc, s_pkts), (q_dt, q_cyc, q_pkts) = benchmark(both)
    assert (s_cyc, s_pkts) == (q_cyc, q_pkts), "modes must agree bit-for-bit"
    ratio = _rate(q_cyc, q_dt) / _rate(s_cyc, s_dt)
    report(
        benchmark,
        "Kernel saturated throughput (nothing can sleep)",
        [
            ("packets delivered", "identical", f"{q_pkts} (both modes)"),
            ("drain cycles", "identical", f"{q_cyc} (both modes)"),
            ("strict (cycles/s)", "(baseline)", f"{_rate(s_cyc, s_dt):,.0f}"),
            ("quiescent (cycles/s)", "~1x strict", f"{_rate(q_cyc, q_dt):,.0f}"),
            ("quiescent/strict", ">=0.5x", f"{ratio:.2f}x"),
        ],
    )
    assert ratio >= 0.5, "quiescent bookkeeping must not halve throughput"


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
    """Quiescent from its first eval on, with no wake booked."""

    def eval(self, cycle):
        pass

    def is_quiescent(self):
        return True


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

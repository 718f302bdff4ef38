"""E10 — Figure 10 + Section 4: the parallel edge detection demo.

The host streams image lines to the embedded processors; each computes
the Sobel gradients gx and gy, adds them and notifies the host.  The
benchmark checks correctness against the golden model and measures the
two-processor speedup over one processor (the reason MultiNoC is a
*multi*processing platform).
"""

import random
import time

import pytest

from conftest import report
from repro.apps import EdgeDetectionApp, reference_sobel
from repro.core import MultiNoCPlatform


def make_image(height=6, width=16, seed=11):
    rng = random.Random(seed)
    return [[rng.randrange(256) for _ in range(width)] for _ in range(height)]


def run_edge_detection(processors):
    image = make_image()
    session = MultiNoCPlatform.standard().launch()
    app = EdgeDetectionApp(session.host, processors=processors)
    app.deploy()
    result = app.run(image)
    assert result.output == reference_sobel(image), "must match golden Sobel"
    return result


def test_parallel_edge_detection_speedup(benchmark):
    def both():
        serial = run_edge_detection([1])
        parallel = run_edge_detection([1, 2])
        return serial, parallel

    serial, parallel = benchmark(both)
    speedup = serial.cycles / parallel.cycles
    report(
        benchmark,
        "E10 parallel edge detection (Figure 10)",
        [
            ("output matches Sobel golden model", "correct images", True),
            ("1-processor run (cycles)", "(baseline)", serial.cycles),
            ("2-processor run (cycles)", "(faster)", parallel.cycles),
            ("speedup", ">1 (parallelism pays)", f"{speedup:.2f}x"),
            ("line split across processors", "both work",
             parallel.lines_per_processor),
        ],
    )
    assert speedup > 1.1, "two processors must beat one"
    assert all(n > 0 for n in parallel.lines_per_processor.values())


def edge_flow(strict, count_evals=False):
    """Launch, deploy and run the two-processor edge detection flow.

    Returns the final cycle, the output image, core 1's retirement and
    stall counters, and — with *count_evals* — how many times the
    kernel called a schedulable unit's ``eval``.  Counting wraps each
    unit's ``eval`` on the instance, so only counting runs pay for it.
    """
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    evals = [0]
    if count_evals:
        for unit in session.sim._flat_units():
            def counted(cycle, _eval=unit.eval):
                evals[0] += 1
                _eval(cycle)

            unit.eval = counted
    app = EdgeDetectionApp(session.host, processors=[1, 2])
    app.deploy()
    result = app.run(make_image())
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


def test_edge_detection_compute_only_scaling(benchmark):
    """Without the serial-link Amdahl term (pre-loaded lines), the
    per-line compute on the two CPUs overlaps almost fully."""

    def measure_line_cost():
        image = make_image(height=4, width=16)
        session = MultiNoCPlatform.standard().launch()
        app = EdgeDetectionApp(session.host, processors=[1])
        app.deploy()
        result = app.run(image)
        proc = session.system.processor(1)
        lines = sum(result.lines_per_processor.values())
        return proc.cpu.cycles_active / max(lines, 1)

    cycles_per_line = benchmark(measure_line_cost)
    report(
        benchmark,
        "E10b per-line compute cost",
        [("R8 cycles per 16-pixel line", "(gx+gy per pixel)",
          f"{cycles_per_line:.0f}")],
    )
    assert cycles_per_line > 1000  # real work per line

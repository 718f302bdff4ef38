"""Per-layer microbenchmarks: one fixed input each, many timed samples.

Each function returns ``(unit, samples)``; the caller reports the
median and p90.  ``serial.cycles_per_word`` is a simulated count and
repeats exactly.
"""

from __future__ import annotations

from time import perf_counter

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from repro.apps import worker_c_source, worker_source
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.cc import compile_source
from repro.core import MultiNoCPlatform
from repro.noc import HermesNetwork
from repro.r8.assembler import assemble

#: words per ``host.write_memory`` in the serial microbenchmark
SERIAL_WORDS = 256

#: an endless local loop: the R8 core runs, the fabric sleeps
_LOOP = """
        CLR  R0
        LDL  R1, 1
        CLR  R2
loop:   ADD  R2, R2, R1
        JMP  loop
"""


def _time(fn, samples: int):
    out = []
    for _ in range(samples):
        t0 = perf_counter()
        fn()
        out.append(perf_counter() - t0)
    return out


def noc_router_cycle(samples: int):
    """``step(100)`` chunks on a saturated 2x2 fabric, per router-cycle."""
    chunk = 100
    net = HermesNetwork(topology="mesh:2x2")
    duration = 1000 + chunk * (samples + 1)
    drive_traffic(net, TrafficConfig(rate=0.2, duration=duration, seed=1))
    sim = net.make_simulator()
    sim.step(1000)
    routers = len(net.mesh.addresses())
    times = _time(lambda: sim.step(chunk), samples)
    return "us", [1e6 * t / (chunk * routers) for t in times]


def r8_instruction(samples: int):
    """``step(200)`` chunks while P1 loops, per retired instruction."""
    session = MultiNoCPlatform.standard().launch()
    session.start(1, _LOOP)
    cpu = session.system.processor(1).cpu
    session.sim.step(1000)
    out = []
    for _ in range(samples):
        before = cpu.instructions_retired
        t0 = perf_counter()
        session.sim.step(200)
        out.append(1e6 * (perf_counter() - t0) / (cpu.instructions_retired - before))
    return "us", out


def serial_words(samples: int):
    """``host.write_memory`` of ``SERIAL_WORDS`` words on an idle 2x2
    platform.

    Returns the per-word host time and the per-word simulated cycles.
    """
    session = MultiNoCPlatform.standard().launch()
    session.host.sync()
    target = session.processor_address(1)
    data = [(7 * i) & 0xFFFF for i in range(SERIAL_WORDS)]
    us, cycles = [], []
    for _ in range(samples):
        c0 = session.sim.cycle
        t0 = perf_counter()
        session.host.write_memory(target, 0x100, data)
        us.append(1e6 * (perf_counter() - t0) / SERIAL_WORDS)
        cycles.append((session.sim.cycle - c0) / SERIAL_WORDS)
    return ("us", us), ("cycles", cycles)


def idle_kcyc(samples: int):
    """``step(100_000)`` on an idle platform, per simulated kilocycle."""
    session = MultiNoCPlatform.standard().launch()
    session.sim.step(100_000)
    times = _time(lambda: session.sim.step(100_000), samples)
    return "us", [1e6 * t / 100 for t in times]


def assemble_edge(samples: int):
    source = worker_source()
    return "ms", [1e3 * t for t in _time(lambda: assemble(source, filename="edge.asm"), samples)]


def compile_edge(samples: int):
    source = worker_c_source()
    return "ms", [1e3 * t for t in _time(lambda: compile_source(source), samples)]


def run_all(samples: int) -> dict:
    """Every microbenchmark: ``name -> (unit, samples)``."""
    per_word, cycles_per_word = serial_words(samples)
    return {
        "noc.us_per_router_cycle": noc_router_cycle(samples),
        "r8.us_per_instr": r8_instruction(samples),
        "serial.us_per_word": per_word,
        "serial.cycles_per_word": cycles_per_word,
        "sim.idle_us_per_kcyc": idle_kcyc(samples),
        "toolchain.edge_assemble_ms": assemble_edge(samples),
        "cc.edge_compile_ms": compile_edge(samples),
    }

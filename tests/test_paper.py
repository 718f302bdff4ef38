"""The paper's numbers, pinned exactly (EXPERIMENTS.md).

Each pin is the value the model measures today, asserted in both kernel
modes.  A change that moves one explains the move in CHANGES.md; the pin
is not edited to fit.  The bench scripts that report these experiments
keep their own, looser asserts.
"""

import random

import pytest

from repro.analysis import ip_scale_for_fraction, noc_fraction_sweep
from repro.apps import EdgeDetectionApp, programs, reference_sobel
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.core import MultiNoCPlatform, Program
from repro.fpga import XC2S200E, AreaModel, prototype
from repro.host import SerialSoftware
from repro.noc import HermesNetwork, SharedBusNetwork
from repro.r8 import LocalBus, R8Cpu, assemble
from repro.sim import Simulator
from repro.system import MultiNoC, SystemConfig

MODES = pytest.mark.parametrize(
    "strict", [False, True], ids=["quiescent", "lockstep"]
)


def _session(strict):
    system = MultiNoC()
    sim = system.make_simulator(strict_lockstep=strict)
    host = SerialSoftware(system).connect(sim)
    host.sync()
    return system, sim, host


def _cycles(sim, action):
    start = sim.cycle
    action()
    return sim.cycle - start


#: E1's (source, target, payload flits) sweep on an idle 5x5 mesh
#: (benchmarks/bench_latency_formula.py)
E1_SWEEP = [
    ((0, 0), (1, 0), 4),
    ((0, 0), (3, 0), 4),
    ((0, 0), (4, 4), 4),
    ((0, 0), (2, 2), 16),
    ((0, 0), (2, 2), 64),
]


def _latencies(routing_cycles):
    out = []
    for src, dst, payload in E1_SWEEP:
        net = HermesNetwork(5, 5, routing_cycles=routing_cycles)
        sim = net.make_simulator()
        net.send(src, dst, [0xAA] * payload)
        net.run_to_drain(sim, max_cycles=100_000)
        out.append(net.collect_received()[0].latency)
    return out


def test_e1_latency_formula():
    """E1: unloaded latencies at Ri=7 and, E1b, at the paper's 2xRi."""
    assert _latencies(7) == [29, 49, 99, 83, 179]
    assert _latencies(11) == [37, 65, 135, 103, 199]


def test_e2_router_peak_throughput():
    """E2: five saturated wormholes move 4,964 flits through router
    (1,1) in a 2,000-cycle window, 2.482 flits/cycle or 0.993 Gbit/s."""
    flows = [
        ((0, 1), (2, 1)),
        ((2, 1), (0, 1)),
        ((1, 0), (1, 2)),
        ((1, 2), (1, 0)),
        ((1, 1), (1, 1)),
    ]
    net = HermesNetwork(3, 3, routing_cycles=1)
    sim = net.make_simulator()
    for _ in range(6):
        for src, dst in flows:
            net.send(src, dst, [0x55] * 250)
    sim.step(300)
    start = net.stats.router_flits_sent((1, 1))
    sim.step(2000)
    flits = net.stats.router_flits_sent((1, 1)) - start
    assert flits == 4964
    assert f"{flits / 2000:.3f}" == "2.482"
    assert f"{flits / 2000 * 8 * 50e6 / 1e9:.3f}" == "0.993"


def test_e4_device_utilisation():
    """E4: 98.0 % slices and 78.0 % LUTs; the NoC is 20.1 % of logic."""
    area = AreaModel().system(SystemConfig.paper())
    util = area.utilization(XC2S200E)
    assert f"{util['slices']:.1%}" == "98.0%"
    assert f"{util['luts']:.1%}" == "78.0%"
    assert f"{area.noc_fraction():.1%}" == "20.1%"


def test_e6_timing_and_clock_plan():
    """E6: 21.48 MHz estimated over a 46.54 ns path; 50 MHz / 2."""
    rep = prototype(anneal_iterations=2500, seed=1)
    assert f"{rep.timing.fmax_mhz:.2f}" == "21.48"
    assert f"{rep.timing.critical_path_ns:.2f}" == "46.54"
    assert rep.clock.division == 2
    assert f"{rep.clock.output_mhz:.0f}" == "25"


def test_e7_noc_share_amortises():
    """E7: the NoC's share of a 10x10 system for IP scale 1/2/4/8, and
    the IP scale at which it crosses 10 % and 5 %."""
    sizes = [2, 3, 4, 6, 8, 10]
    at_10x10 = [
        noc_fraction_sweep(sizes, ip_area_scale=scale)[-1].noc_fraction
        for scale in (1.0, 2.0, 4.0, 8.0)
    ]
    assert [f"{f:.2%}" for f in at_10x10] == [
        "17.58%", "9.65%", "5.07%", "2.60%"
    ]
    assert f"{ip_scale_for_fraction(0.10):.2f}" == "1.92"
    assert f"{ip_scale_for_fraction(0.05):.2f}" == "4.06"


@MODES
def test_e8_service_round_trips(strict):
    """E8: cycles per service round trip, serial I/O included."""
    system, sim, host = _session(strict)
    write = _cycles(sim, lambda: host.write_memory((1, 1), 0x10, [0xABCD]))
    words = []
    read = _cycles(
        sim, lambda: words.extend(host.read_memory((1, 1), 0x10, 1))
    )
    assert words == [0xABCD]
    host.set_scanf_handler(1, lambda: 21)
    scanf_printf = _cycles(sim, lambda: host.run_program((0, 1), 1, assemble(
        "CLR R0\nLDI R2, 0xFFFF\nLD R1, R2, R0\nADD R1, R1, R1\n"
        "ST R1, R2, R0\nHALT"
    )))
    assert host.monitor(1).printf_values == [42]

    def wait_notify():
        host.load_program((0, 1), assemble(
            "CLR R0\nLDL R3, 2\nLDI R2, 0xFFFE\nST R3, R2, R0\nHALT"
        ))
        host.load_program((1, 0), assemble(
            "CLR R0\nLDL R3, 1\nLDI R2, 0xFFFD\nST R3, R2, R0\nHALT"
        ))
        host.activate((0, 1))
        host.activate((1, 0))
        sim.run_until(lambda: system.all_halted, max_cycles=200_000)

    pair = _cycles(sim, wait_notify)
    assert (write, read, scanf_printf, pair) == (329, 532, 1523, 1745)


@MODES
def test_e8b_remote_load_stall(strict):
    """E8b: 16 remote LDs stall the core 1,120 cycles, 70.0 each."""
    system, sim, host = _session(strict)
    host.write_memory((1, 1), 0, [7])
    host.run_program((0, 1), 1, assemble(
        "CLR R0\nLDI R2, 2048\n" + "LD R1, R2, R0\n" * 16 + "HALT"
    ))
    stalled = system.processor(1).cpu.cycles_stalled
    assert stalled == 1120
    assert stalled / 16 == 70.0


@MODES
def test_e9_figure9_read_bytes(strict):
    """E9: the typed bytes ``00 01 01 00 20`` read 0x1234 back from 0x20."""
    system, sim, host = _session(strict)
    host.run_program((0, 1), 1, assemble(
        "CLR R0\nLDI R1, 0x1234\nLDI R2, 0x20\nST R1, R2, R0\n"
        "LDI R2, 0xFFFF\nST R1, R2, R0\nHALT"
    ))
    start = sim.cycle
    host.uart_tx.send_bytes([0x00, 0x01, 0x01, 0x00, 0x20])
    sim.run_until(lambda: host.read_returns, max_cycles=200_000)
    reply = host.read_returns.popleft()
    assert (reply.address, reply.words) == (0x20, [0x1234])
    assert sim.cycle - start == 511


@MODES
def test_e9b_serial_load_cost(strict):
    """E9b: loading 64 words over the serial line takes 5,673 cycles."""
    system, sim, host = _session(strict)
    obj = assemble(".word " + ", ".join(["7"] * 64))
    assert _cycles(sim, lambda: host.load_program((0, 1), obj)) == 5673


def _edge_detection(processors, strict):
    """E10's 6x16 image (benchmarks/bench_edge_detection.py) through
    the Figure 10 application."""
    rng = random.Random(11)
    image = [[rng.randrange(256) for _ in range(16)] for _ in range(6)]
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    app = EdgeDetectionApp(session.host, processors=processors)
    app.deploy()
    result = app.run(image)
    assert result.output == reference_sobel(image)
    return result


@MODES
def test_e10_parallel_edge_detection(strict):
    """E10: 39,177 cycles on one processor, 29,765 on two (1.32x), with
    the lines split 2/2 and golden-Sobel output."""
    serial = _edge_detection([1], strict)
    parallel = _edge_detection([1, 2], strict)
    assert (serial.cycles, parallel.cycles) == (39177, 29765)
    assert f"{serial.cycles / parallel.cycles:.2f}" == "1.32"
    assert parallel.lines_per_processor == {1: 2, 2: 2}


#: E13's (bus, NoC) completion cycles for n x n systems
E13_COMPLETION = {
    2: (2508, 2537),
    3: (3226, 2668),
    4: (5630, 3035),
    6: (12064, 4946),
}


def _completion(net, **simulator):
    config = TrafficConfig(
        pattern="uniform", rate=0.01, duration=2500, payload_flits=8, seed=3
    )
    drive_traffic(net, config)
    sim = net.make_simulator(**simulator)
    sim.step(config.duration)
    net.run_to_drain(sim, max_cycles=2_000_000)
    return sim.cycle


def test_e13_bus_completion():
    """E13: the shared bus's completion times for 2x2 to 6x6."""
    assert {
        n: _completion(SharedBusNetwork(n, n)) for n in E13_COMPLETION
    } == {n: bus for n, (bus, _) in E13_COMPLETION.items()}


@MODES
def test_e13_noc_completion(strict):
    """E13: the Hermes mesh's completion times for the same traffic."""
    assert {
        n: _completion(HermesNetwork(n, n), strict_lockstep=strict)
        for n in E13_COMPLETION
    } == {n: noc for n, (_, noc) in E13_COMPLETION.items()}


#: E11's instruction mixes (benchmarks/bench_r8_cpi.py) and their pinned
#: (active cycles, instructions retired)
E11_MIXES = {
    "pure ALU": (
        "LDL R1, 1\n" + "ADD R2, R2, R1\nXOR R3, R2, R1\n" * 40 + "HALT",
        (164, 82),
    ),
    "memory heavy": (
        "CLR R0\nLDI R6, 0x80\n"
        + "ST R2, R6, R0\nLD R3, R6, R0\n" * 40
        + "HALT",
        (288, 84),
    ),
    "call heavy": (
        "CLR R0\nJSRD sub\nLDI R1, 40\nLDL R2, 1\n"
        "loop: JSRD sub\nSUB R1, R1, R2\nJMPZD done\nJMP loop\n"
        "done: HALT\nsub: RTS",
        (535, 206),
    ),
    "balanced": (programs.instruction_mix(reps=24), (490, 174)),
}


def _core_run(source, strict):
    bus = LocalBus()
    bus.load(assemble(source).memory_image())
    cpu = R8Cpu("cpu", bus)
    sim = Simulator(strict_lockstep=strict)
    sim.add(cpu)
    cpu.activate()
    sim.run_until(lambda: cpu.halted, max_cycles=200_000)
    return cpu


@MODES
@pytest.mark.parametrize("mix", sorted(E11_MIXES))
def test_e11_cpi_per_mix(mix, strict):
    """E11: cycles and instructions of each mix on the cycle core."""
    source, pinned = E11_MIXES[mix]
    cpu = _core_run(source, strict)
    assert (cpu.cycles_active, cpu.instructions_retired) == pinned


@MODES
def test_e11b_iss_matches_the_core(strict):
    """E11b: the ISS and the cycle core both take 332 cycles."""
    source = programs.instruction_mix(reps=16)
    iss = Program.from_source(source).simulate()
    assert iss.cycles == _core_run(source, strict).cycles_active == 332

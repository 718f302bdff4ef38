"""The paper's numbers, pinned exactly (EXPERIMENTS.md).

Each pin is the value the model measures today, asserted in both kernel
modes.  A change that moves one explains the move in CHANGES.md; the pin
is not edited to fit.  The bench scripts that report these experiments
keep their own, looser asserts.
"""

import pytest

from repro.apps import programs
from repro.core import Program
from repro.host import SerialSoftware
from repro.r8 import LocalBus, R8Cpu, assemble
from repro.sim import Simulator
from repro.system import MultiNoC

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

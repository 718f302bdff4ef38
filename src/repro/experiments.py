"""One procedure per paper experiment (the rows of EXPERIMENTS.md).

Each ``e<N>_*`` function builds the model for one experiment, runs it
and returns that row's measured numbers.  ``tests/test_paper.py`` pins
the numbers exactly; ``benchmarks/bench_paper.py`` times every row and
prints it beside the paper's claim.  Every workload the experiments run
is written here and nowhere else: the sweeps, flows, programs, traffic
configurations and the Figure 10 image.  The cycle-count experiments
take ``strict_lockstep`` so the pins can run them in both kernel modes.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Optional, Tuple

from .analysis import (
    bus_energy_from_stats,
    crossover_ips,
    hops,
    ip_scale_for_fraction,
    noc_energy_from_stats,
    noc_fraction_sweep,
    sweep,
)
from .apps import EdgeDetectionApp, programs, reference_sobel
from .apps.edge_detection import EdgeDetectionResult
from .apps.workloads import TrafficConfig, drive_traffic
from .core import MultiNoCPlatform, Program
from .fpga import XC2S200E, AreaModel, Floorplanner, device, prototype
from .host import SerialSoftware
from .noc import HermesNetwork, SharedBusNetwork
from .r8 import LocalBus, R8Cpu, assemble
from .sim import Simulator
from .system import MultiNoC, SystemConfig

#: the clock of the paper's throughput claims (Section 2.1)
CLOCK_HZ = 50e6


def _unloaded_latency(
    net, source, target, payload_flits, strict_lockstep=False
) -> int:
    """Latency of one packet through an otherwise idle *net*."""
    sim = net.make_simulator(strict_lockstep=strict_lockstep)
    net.send(source, target, [0xAA] * payload_flits)
    net.run_to_drain(sim, max_cycles=100_000)
    return net.collect_received()[0].latency


def _drain(net, config: TrafficConfig, strict_lockstep=False, max_cycles=2_000_000):
    """Offer *config*'s traffic to *net* and run until it drains."""
    drive_traffic(net, config)
    # only the Hermes network takes a kernel mode; the bus runs quiescent
    if strict_lockstep:
        sim = net.make_simulator(strict_lockstep=True)
    else:
        sim = net.make_simulator()
    sim.step(config.duration)
    net.run_to_drain(sim, max_cycles=max_cycles)
    net.collect_received()
    return sim


# -- E1: the latency formula -------------------------------------------------

#: (source, target, payload flits) on an idle 5x5 mesh
E1_SWEEP = [
    ((0, 0), (1, 0), 4),
    ((0, 0), (3, 0), 4),
    ((0, 0), (4, 4), 4),
    ((0, 0), (2, 2), 16),
    ((0, 0), (2, 2), 64),
]


def e1_latency_formula() -> Dict[int, List[Tuple[int, int, int]]]:
    """E1 and E1b: ``(routers n, packet flits P, latency)`` over the
    sweep, at the default Ri=7 and at Ri=11 (the paper's 2xRi
    accounting), keyed by routing cycles."""
    return {
        rc: [
            (
                hops(src, dst),
                payload + 2,
                _unloaded_latency(
                    HermesNetwork(5, 5, routing_cycles=rc), src, dst, payload
                ),
            )
            for src, dst, payload in E1_SWEEP
        ]
        for rc in (7, 11)
    }


# -- E2: router peak throughput ------------------------------------------------

#: five flows that each occupy a distinct output port of router (1,1)
E2_FLOWS = [
    ((0, 1), (2, 1)),  # -> EAST
    ((2, 1), (0, 1)),  # -> WEST
    ((1, 0), (1, 2)),  # -> NORTH
    ((1, 2), (1, 0)),  # -> SOUTH
    ((1, 1), (1, 1)),  # -> LOCAL
]
E2_WARMUP = 300
E2_WINDOW = 2000


def _window_flits(net, flows, router) -> int:
    """Flits *router* sends in the window while *flows* saturate it."""
    sim = net.make_simulator()
    # enough long packets to keep every port busy through the window
    for _ in range(6):
        for src, dst in flows:
            net.send(src, dst, [0x55] * 250)
    sim.step(E2_WARMUP)
    start = net.stats.router_flits_sent(router)
    sim.step(E2_WINDOW)
    return net.stats.router_flits_sent(router) - start


def e2_router_throughput() -> dict:
    """E2 and E2b: flits router (1,1) of a 3x3 mesh sends in the window
    with a saturated wormhole through each of its five ports, and one
    port of a 2x1 mesh alone, with both rates at 50 MHz."""
    flits = _window_flits(HermesNetwork(3, 3, routing_cycles=1), E2_FLOWS, (1, 1))
    port = _window_flits(
        HermesNetwork(2, 1, routing_cycles=1), [((0, 0), (1, 0))], (1, 0)
    )
    return {
        "flits": flits,
        "flits_per_cycle": flits / E2_WINDOW,
        "bps": flits / E2_WINDOW * 8 * CLOCK_HZ,
        "port_bps": port / E2_WINDOW * 8 * CLOCK_HZ,
    }


# -- E3: buffer depth ------------------------------------------------------------

E3_DEPTHS = [2, 4, 8, 16]


def e3_buffer_depth(strict_lockstep=False) -> Dict[int, dict]:
    """E3: contended transpose traffic on a 4x4 mesh at each input
    buffer depth: completion cycle, worst latency, packets delivered and
    the router's slices."""
    out = {}
    for depth in E3_DEPTHS:
        net = HermesNetwork(4, 4, buffer_depth=depth)
        sim = _drain(
            net,
            TrafficConfig(
                pattern="transpose", rate=0.035, duration=3000,
                payload_flits=12, seed=5,
            ),
            strict_lockstep,
            max_cycles=500_000,
        )
        out[depth] = {
            "completion": sim.cycle,
            "max_latency": net.stats.max_latency,
            "delivered": net.stats.packets_delivered,
            "slices": AreaModel().router(5, buffer_depth=depth).slices,
        }
    return out


# -- E4 to E7: the FPGA and area models --------------------------------------------


def e4_device_utilisation() -> dict:
    """E4: the paper's 2x2 system on the XC2S200E, and whether it fits
    the next part down."""
    area = AreaModel().system(SystemConfig.paper())
    util = area.utilization(XC2S200E)
    return {
        "slices": util["slices"],
        "luts": util["luts"],
        "brams": util["brams"],
        "noc_fraction": area.noc_fraction(),
        "fits": area.total.fits(XC2S200E),
        "fits_xc2s150e": area.total.fits(device("XC2S150E")),
    }


def e5_floorplan() -> dict:
    """E5: the annealed floorplan against eight random placements, and
    the x centroids of the Figure 7 blocks on the annealed one."""
    planner = Floorplanner()
    annealed = planner.anneal(iterations=2500, seed=1)
    randoms = [planner.random_placement(seed=s) for s in range(8)]
    return {
        "fits": annealed.fits,
        "wirelength": annealed.wirelength,
        "cost": annealed.cost,
        "random_wirelength": sum(p.wirelength for p in randoms) / len(randoms),
        "random_cost": sum(p.cost for p in randoms) / len(randoms),
        "centroid_x": {
            name: annealed.centroid(name)[0]
            for name in ("serial", "noc", "mem0", "proc1", "proc2")
        },
        "die_columns": XC2S200E.clb_cols,
    }


def e6_timing() -> dict:
    """E6: the timing estimate of the annealed design and the clkdll's
    plan for it."""
    rep = prototype(anneal_iterations=2500, seed=1)
    return {
        "fmax_mhz": rep.timing.fmax_mhz,
        "critical_path_ns": rep.timing.critical_path_ns,
        "division": rep.clock.division,
        "output_mhz": rep.clock.output_mhz,
        "meets_timing": rep.clock.meets_timing,
    }


E7_SIZES = [2, 3, 4, 6, 8, 10]
E7_IP_SCALES = (1.0, 2.0, 4.0, 8.0)
#: cmesh node grids are 2N wide at concentration 2, so the 4-bit header
#: nibble caps the topology sweep at 8x8 routers (16x8 nodes)
E7_TOPOLOGY_SIZES = [2, 4, 8]


def e7_noc_share() -> dict:
    """E7 and E7b: the NoC's area share over mesh sizes for each IP area
    scale, the IP scale at which a 10x10 system's share crosses 10 % and
    5 %, and the share over sizes for each topology."""
    return {
        "by_ip_scale": {
            scale: noc_fraction_sweep(E7_SIZES, ip_area_scale=scale)
            for scale in E7_IP_SCALES
        },
        "ten_pct_scale": ip_scale_for_fraction(0.10),
        "five_pct_scale": ip_scale_for_fraction(0.05),
        "by_topology": {
            kind: noc_fraction_sweep(E7_TOPOLOGY_SIZES, topology=kind)
            for kind in ("mesh", "torus", "cmesh")
        },
    }


def e7c_topology_latency() -> dict:
    """E7c: latency-load points of a 4x4 mesh and a 4x4 torus under
    uniform traffic."""
    return {
        spec: sweep(
            functools.partial(HermesNetwork, topology=spec),
            rates=[0.005, 0.02], duration=1500, seed=11,
        )
        for spec in ("mesh:4x4", "torus:4x4")
    }


# -- E8 and E9: the packet services and the host -----------------------------------


def _session(strict_lockstep):
    system = MultiNoC()
    sim = system.make_simulator(strict_lockstep=strict_lockstep)
    host = SerialSoftware(system).connect(sim)
    host.sync()
    return system, sim, host


def _cycles(sim, action) -> int:
    start = sim.cycle
    action()
    return sim.cycle - start


def e8_service_round_trips(strict_lockstep=False) -> dict:
    """E8: cycles per round trip of the nine services, serial I/O
    included, with the words and printf values they carried and the
    packets any IP dropped."""
    system, sim, host = _session(strict_lockstep)
    costs = {}
    costs["write in memory"] = _cycles(
        sim, lambda: host.write_memory((1, 1), 0x10, [0xABCD])
    )
    words = []
    costs["read + read return"] = _cycles(
        sim, lambda: words.extend(host.read_memory((1, 1), 0x10, 1))
    )
    host.set_scanf_handler(1, lambda: 21)
    costs["activate/scanf/scanf-return/printf"] = _cycles(
        sim,
        lambda: host.run_program((0, 1), 1, assemble(
            "CLR R0\nLDI R2, 0xFFFF\n"
            "LD R1, R2, R0\n"  # scanf -> scanf return
            "ADD R1, R1, R1\n"
            "ST R1, R2, R0\n"  # printf
            "HALT"
        )),
    )

    def wait_notify():
        host.load_program((0, 1), assemble(
            "CLR R0\nLDL R3, 2\nLDI R2, 0xFFFE\nST R3, R2, R0\nHALT"  # wait
        ))
        host.load_program((1, 0), assemble(
            "CLR R0\nLDL R3, 1\nLDI R2, 0xFFFD\nST R3, R2, R0\nHALT"  # notify
        ))
        host.activate((0, 1))
        host.activate((1, 0))
        sim.run_until(lambda: system.all_halted, max_cycles=200_000)

    costs["wait + notify pair"] = _cycles(sim, wait_notify)
    return {
        "cycles": costs,
        "read_words": words,
        "printf_values": host.monitor(1).printf_values,
        "dropped": len(system.memory(0).dropped_packets)
        + sum(len(p.dropped_packets) for p in system.processors.values())
        + len(system.serial.dropped_packets),
    }


E8B_LOADS = 16


def e8b_remote_load_stall(strict_lockstep=False) -> dict:
    """E8b: cycles the core stalls over 16 remote LDs, in total and per
    load."""
    system, _, host = _session(strict_lockstep)
    host.write_memory((1, 1), 0, [7])
    host.run_program((0, 1), 1, assemble(
        "CLR R0\nLDI R2, 2048\n" + "LD R1, R2, R0\n" * E8B_LOADS + "HALT"
    ))
    stalled = system.processor(1).cpu.cycles_stalled
    return {"stalled": stalled, "per_load": stalled / E8B_LOADS}


def e9_figure9(strict_lockstep=False) -> dict:
    """E9: the typed bytes ``00 01 01 00 20`` read P1's word at 0x20
    back, and the printf monitor shows the value the program printed;
    with the cycles from the first byte to the reply."""
    system, sim, host = _session(strict_lockstep)
    # a program that stores a result at 0x20 and printfs it
    host.run_program((0, 1), 1, assemble(
        "CLR R0\nLDI R1, 0x1234\nLDI R2, 0x20\n"
        "ST R1, R2, R0\n"  # result in memory (debug path 1)
        "LDI R2, 0xFFFF\n"
        "ST R1, R2, R0\n"  # printf (debug path 2)
        "HALT"
    ))
    start = sim.cycle
    host.uart_tx.send_bytes([0x00, 0x01, 0x01, 0x00, 0x20])
    sim.run_until(lambda: host.read_returns, max_cycles=200_000)
    reply = host.read_returns.popleft()
    return {
        "address": reply.address,
        "words": reply.words,
        "reply_cycles": sim.cycle - start,
        "printf_values": host.monitor(1).printf_values,
        "transcript": host.monitor(1).transcript(),
    }


E9B_WORDS = 64


def e9b_serial_load_cost(strict_lockstep=False) -> dict:
    """E9b: cycles to load 64 words over the serial line, in total and
    per word."""
    _, sim, host = _session(strict_lockstep)
    obj = assemble(".word " + ", ".join(["7"] * E9B_WORDS))
    cycles = _cycles(sim, lambda: host.load_program((0, 1), obj))
    return {"cycles": cycles, "per_word": cycles / E9B_WORDS}


# -- E10: parallel edge detection ---------------------------------------------------


def _e10_image() -> List[List[int]]:
    """Figure 10's input: a 6x16 image of seeded random pixels."""
    rng = random.Random(11)
    return [[rng.randrange(256) for _ in range(16)] for _ in range(6)]


def edge_detection(
    session, processors: Optional[List[int]] = None, image=None
) -> EdgeDetectionResult:
    """Deploy Figure 10's application on *session*'s *processors* (all
    by default) and run it on *image* (E10's by default); raise if the
    output is not the golden Sobel image."""
    image = _e10_image() if image is None else image
    app = EdgeDetectionApp(session.host, processors=processors)
    app.deploy()
    result = app.run(image)
    if result.output != reference_sobel(image):
        raise RuntimeError("edge-detection output mismatch")
    return result


def e10_parallel_edge_detection(
    strict_lockstep=False,
) -> Tuple[EdgeDetectionResult, EdgeDetectionResult]:
    """E10: the image on processor 1 alone, then on processors 1 and 2."""
    return tuple(
        edge_detection(
            MultiNoCPlatform.standard().launch(strict_lockstep=strict_lockstep),
            processors,
        )
        for processors in ([1], [1, 2])
    )


def e10b_line_compute_cost() -> float:
    """E10b: R8 cycles per line of the image's first four lines on one
    processor."""
    session = MultiNoCPlatform.standard().launch()
    result = edge_detection(session, [1], _e10_image()[:4])
    lines = sum(result.lines_per_processor.values())
    return session.system.processor(1).cpu.cycles_active / lines


# -- E11: R8 CPI ---------------------------------------------------------------------

#: instruction-mix microbenchmarks
E11_MIXES = {
    "pure ALU": "LDL R1, 1\n" + "ADD R2, R2, R1\nXOR R3, R2, R1\n" * 40 + "HALT",
    "memory heavy": (
        "CLR R0\nLDI R6, 0x80\n"
        + "ST R2, R6, R0\nLD R3, R6, R0\n" * 40
        + "HALT"
    ),
    "call heavy": (
        "CLR R0\nJSRD sub\nLDI R1, 40\nLDL R2, 1\n"
        "loop: JSRD sub\nSUB R1, R1, R2\nJMPZD done\nJMP loop\n"
        "done: HALT\nsub: RTS"
    ),
    "balanced": programs.instruction_mix(reps=24),
}


def _core_run(source: str, strict_lockstep: bool) -> R8Cpu:
    """Run *source* to HALT on a lone cycle-accurate core."""
    bus = LocalBus()
    bus.load(assemble(source).memory_image())
    cpu = R8Cpu("cpu", bus)
    sim = Simulator(strict_lockstep=strict_lockstep)
    sim.add(cpu)
    cpu.activate()
    sim.run_until(lambda: cpu.halted, max_cycles=200_000)
    return cpu


def e11_cpi(strict_lockstep=False) -> Dict[str, Tuple[int, int]]:
    """E11: (active cycles, instructions retired) of each mix on the
    cycle-accurate core."""
    out = {}
    for name, source in E11_MIXES.items():
        cpu = _core_run(source, strict_lockstep)
        out[name] = (cpu.cycles_active, cpu.instructions_retired)
    return out


def e11b_iss_matches_core(strict_lockstep=False) -> Tuple[int, int]:
    """E11b: cycles of one mix on the functional simulator and on the
    cycle-accurate core."""
    source = programs.instruction_mix(reps=16)
    iss = Program.from_source(source).simulate()
    return iss.cycles, _core_run(source, strict_lockstep).cycles_active


# -- E12: platform scalability -----------------------------------------------------

#: the compute kernel every processor runs: sum 200..1 = 20100
WORK_PROGRAM = """
        CLR  R0
        LDI  R1, 200
        LDL  R2, 1
        CLR  R3
loop:   ADD  R3, R3, R1
        SUB  R1, R1, R2
        JMPZD done
        JMP  loop
done:   LDI  R4, 0xFFFF
        ST   R3, R4, R0
        HALT
"""
WORK_RESULT = 20100

#: (mesh, processors) of each platform
E12_PLATFORMS = [((2, 2), 2), ((3, 3), 4), ((3, 3), 7), ((4, 4), 10)]


def _run_compute_workload(mesh, n_processors) -> dict:
    """Run :data:`WORK_PROGRAM` on every processor of a *mesh* platform."""
    session = MultiNoCPlatform(
        n_processors=n_processors, mesh=mesh, n_memories=1
    ).launch()
    session.host.sync()
    for pid in range(1, n_processors + 1):
        session.start(pid, WORK_PROGRAM)
    start = session.sim.cycle
    session.wait_all_halted(max_cycles=5_000_000)
    elapsed = session.sim.cycle - start
    session.sim.step(5000)  # drain printfs
    for pid in range(1, n_processors + 1):
        values = session.host.monitor(pid).printf_values
        if values != [WORK_RESULT]:
            raise RuntimeError(f"P{pid} computed {values}")
    retired = sum(
        p.cpu.instructions_retired for p in session.system.processors.values()
    )
    return {"elapsed": elapsed, "retired": retired}


def e12_platform_scaling() -> dict:
    """E12 and E12b: cycles and instructions retired running the kernel
    on every processor of each platform, and the components of a 10x10
    system with 60 processors and 39 memories."""
    system = MultiNoCPlatform(n_processors=60, mesh=(10, 10), n_memories=39).build()
    return {
        "runs": {
            (mesh, n): _run_compute_workload(mesh, n) for mesh, n in E12_PLATFORMS
        },
        "components_10x10": sum(1 for _ in system.iter_components()),
    }


# -- E13 to E15: the NoC against a shared bus ----------------------------------------

E13_SIZES = [2, 3, 4, 6]


def e13_bus_vs_noc(strict_lockstep=False) -> Dict[int, dict]:
    """E13: completion cycles of the same uniform traffic on an n x n
    shared bus and Hermes mesh, with the packets each delivered."""
    config = TrafficConfig(
        pattern="uniform", rate=0.01, duration=2500, payload_flits=8, seed=3
    )
    out = {}
    for n in E13_SIZES:
        bus, noc = SharedBusNetwork(n, n), HermesNetwork(n, n)
        bus_sim = _drain(bus, config)
        noc_sim = _drain(noc, config, strict_lockstep)
        out[n] = {
            "bus": bus_sim.cycle,
            "noc": noc_sim.cycle,
            "delivered": (bus.stats.packets_delivered, noc.stats.packets_delivered),
        }
    return out


def e13b_saturation_throughput(
    strict_lockstep=False,
) -> Dict[int, Tuple[float, float]]:
    """E13b: accepted flits/cycle of the bus and the mesh under offered
    load far beyond one flit per cycle."""
    config = TrafficConfig(
        pattern="uniform", rate=0.08, duration=2000, payload_flits=8, seed=7
    )
    out = {}
    for n in (2, 4, 6):
        rates = []
        for net, strict in (
            (SharedBusNetwork(n, n), False),
            (HermesNetwork(n, n), strict_lockstep),
        ):
            sim = _drain(net, config, strict, max_cycles=5_000_000)
            rates.append(net.stats.delivered_flits / sim.cycle)
        out[n] = tuple(rates)
    return out


E14_ROUTING_CYCLES = [1, 3, 7, 11]


def e14_routing_cycles(strict_lockstep=False) -> dict:
    """E14: unloaded (0,0)->(3,3) latency of an 8-flit payload on a 4x4
    mesh, and accepted flits/cycle at saturation, for each Ri."""
    saturating = TrafficConfig(
        pattern="uniform", rate=0.08, duration=1200, payload_flits=8, seed=11
    )
    by_ri = {}
    for rc in E14_ROUTING_CYCLES:
        latency = _unloaded_latency(
            HermesNetwork(4, 4, routing_cycles=rc), (0, 0), (3, 3), 8,
            strict_lockstep,
        )
        net = HermesNetwork(4, 4, routing_cycles=rc)
        sim = _drain(net, saturating, strict_lockstep, max_cycles=3_000_000)
        by_ri[rc] = (latency, net.stats.delivered_flits / sim.cycle)
    return {"routers": hops((0, 0), (3, 3)), "packet_flits": 10, "by_ri": by_ri}


def e15_energy() -> dict:
    """E15: the energy estimates of the same uniform traffic on an n x n
    mesh and shared bus, and the model's crossover size."""
    config = TrafficConfig(rate=0.005, duration=2000, payload_flits=8, seed=3)
    by_size = {}
    for n in E13_SIZES:
        noc, bus = HermesNetwork(n, n), SharedBusNetwork(n, n)
        _drain(noc, config)
        _drain(bus, config)
        by_size[n] = {
            "noc": noc_energy_from_stats(noc.stats),
            "bus": bus_energy_from_stats(bus.stats, n * n),
        }
    return {"by_size": by_size, "crossover_ips": crossover_ips()}

"""The paper's numbers, pinned exactly (EXPERIMENTS.md).

Each test runs one :mod:`repro.experiments` procedure and pins the value
the model measures today, in both kernel modes where the number is a
cycle count.  A change that moves one explains the move in CHANGES.md;
the pin is not edited to fit.  ``benchmarks/bench_paper.py`` times the
same procedures and prints them beside the paper's claims.
"""

import pytest

from repro import experiments

MODES = pytest.mark.parametrize(
    "strict", [False, True], ids=["quiescent", "lockstep"]
)


def test_e1_latency_formula():
    """E1: unloaded latencies at Ri=7 and, E1b, at the paper's 2xRi."""
    rows = experiments.e1_latency_formula()
    assert [lat for *_, lat in rows[7]] == [29, 49, 99, 83, 179]
    assert [lat for *_, lat in rows[11]] == [37, 65, 135, 103, 199]


def test_e2_router_peak_throughput():
    """E2: five saturated wormholes move 4,964 flits through router
    (1,1) in a 2,000-cycle window, 2.482 flits/cycle or 0.993 Gbit/s."""
    got = experiments.e2_router_throughput()
    assert got["flits"] == 4964
    assert f"{got['flits_per_cycle']:.3f}" == "2.482"
    assert f"{got['bps'] / 1e9:.3f}" == "0.993"


def test_e4_device_utilisation():
    """E4: 98.0 % slices and 78.0 % LUTs; the NoC is 20.1 % of logic."""
    got = experiments.e4_device_utilisation()
    assert f"{got['slices']:.1%}" == "98.0%"
    assert f"{got['luts']:.1%}" == "78.0%"
    assert f"{got['noc_fraction']:.1%}" == "20.1%"


def test_e6_timing_and_clock_plan():
    """E6: 21.48 MHz estimated over a 46.54 ns path; 50 MHz / 2."""
    got = experiments.e6_timing()
    assert f"{got['fmax_mhz']:.2f}" == "21.48"
    assert f"{got['critical_path_ns']:.2f}" == "46.54"
    assert got["division"] == 2
    assert f"{got['output_mhz']:.0f}" == "25"


def test_e7_noc_share_amortises():
    """E7: the NoC's share of a 10x10 system for IP scale 1/2/4/8, and
    the IP scale at which it crosses 10 % and 5 %."""
    got = experiments.e7_noc_share()
    assert [
        f"{points[-1].noc_fraction:.2%}"
        for points in got["by_ip_scale"].values()
    ] == ["17.58%", "9.65%", "5.07%", "2.60%"]
    assert f"{got['ten_pct_scale']:.2f}" == "1.92"
    assert f"{got['five_pct_scale']:.2f}" == "4.06"


@MODES
def test_e8_service_round_trips(strict):
    """E8: cycles per service round trip, serial I/O included."""
    got = experiments.e8_service_round_trips(strict)
    assert got["read_words"] == [0xABCD]
    assert got["printf_values"] == [42]
    assert tuple(got["cycles"].values()) == (329, 532, 1523, 1745)


@MODES
def test_e8b_remote_load_stall(strict):
    """E8b: 16 remote LDs stall the core 1,120 cycles, 70.0 each."""
    got = experiments.e8b_remote_load_stall(strict)
    assert got["stalled"] == 1120
    assert got["per_load"] == 70.0


@MODES
def test_e9_figure9_read_bytes(strict):
    """E9: the typed bytes ``00 01 01 00 20`` read 0x1234 back from 0x20."""
    got = experiments.e9_figure9(strict)
    assert (got["address"], got["words"]) == (0x20, [0x1234])
    assert got["reply_cycles"] == 511


@MODES
def test_e9b_serial_load_cost(strict):
    """E9b: loading 64 words over the serial line takes 5,673 cycles."""
    assert experiments.e9b_serial_load_cost(strict)["cycles"] == 5673


@MODES
def test_e10_parallel_edge_detection(strict):
    """E10: 39,177 cycles on one processor, 29,765 on two (1.32x), with
    the lines split 2/2 and golden-Sobel output."""
    serial, parallel = experiments.e10_parallel_edge_detection(strict)
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


def test_e13_bus_completion():
    """E13: the shared bus's completion times for 2x2 to 6x6."""
    got = experiments.e13_bus_vs_noc()
    assert {n: r["bus"] for n, r in got.items()} == {
        n: bus for n, (bus, _) in E13_COMPLETION.items()
    }


@MODES
def test_e13_noc_completion(strict):
    """E13: the Hermes mesh's completion times for the same traffic."""
    got = experiments.e13_bus_vs_noc(strict)
    assert {n: r["noc"] for n, r in got.items()} == {
        n: noc for n, (_, noc) in E13_COMPLETION.items()
    }


#: E11's pinned (active cycles, instructions retired) per mix
E11_PINS = {
    "pure ALU": (164, 82),
    "memory heavy": (288, 84),
    "call heavy": (535, 206),
    "balanced": (490, 174),
}


@MODES
@pytest.mark.parametrize("mix", sorted(E11_PINS))
def test_e11_cpi_per_mix(mix, strict):
    """E11: cycles and instructions of each mix on the cycle core."""
    assert experiments.e11_cpi(strict)[mix] == E11_PINS[mix]


@MODES
def test_e11b_iss_matches_the_core(strict):
    """E11b: the ISS and the cycle core both take 332 cycles."""
    assert experiments.e11b_iss_matches_core(strict) == (332, 332)

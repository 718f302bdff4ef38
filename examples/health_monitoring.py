#!/usr/bin/env python
"""Health monitoring walkthrough: watch a live system, then wedge it.

1. run a healthy program with the monitor attached — watchdogs and
   invariant checks stay silent, and the live stream's frames are
   folded into a timeline (the series ``--health-report`` writes);
2. build a bare 2x2 mesh with a *wedged* sink NI (never consumes a
   flit), inject a packet and let the deadlock watchdog localise the
   wormhole: the raised HealthViolation carries the port wait-for
   graph, per-port FIFO snapshots and last-movement cycles.
"""

import json

from repro import HealthViolation, MultiNoCPlatform
from repro.noc.mesh import Mesh
from repro.noc.ni import NetworkInterface
from repro.noc.packet import Packet
from repro.noc.stats import NetworkStats
from repro.sim import Simulator
from repro.telemetry.health import HealthMonitor
from repro.telemetry.top import FrameSeries

PROGRAM = """
; count down from 10, printf each value, halt.
        CLR  R0
        LDI  R2, 0xFFFF
        LDL  R1, 10
        LDL  R3, 1
loop:   ST   R1, R2, R0        ; printf(R1)
        SUB  R1, R1, R3
        JMPZD done
        JMP  loop
done:   HALT
"""


def healthy_run() -> None:
    """A monitored run of a well-behaved program, with its time series."""
    session = MultiNoCPlatform.standard().launch()
    monitor = session.monitor_health(check_interval=32, invariants=True)
    series = FrameSeries(200)
    session.live_stream(stride=200).subscribe(series.observe)
    session.host.sync()
    session.run(1, PROGRAM)
    print(f"printed: {session.host.monitor(1).printf_values}")
    print(f"checks run: {monitor.checks_run}, "
          f"violations: {len(monitor.violations)}")
    print("timeline (one live frame per 200 cycles):")
    print(series.timeline(width=48))
    assert not monitor.violations, "a healthy run must stay clean"


def wedged_run() -> None:
    """A deliberately wedged mesh, diagnosed by the deadlock watchdog."""
    stats = NetworkStats()
    mesh = Mesh(2, 2, stats=stats)

    class WedgedNI(NetworkInterface):
        """A sink that never acknowledges a flit — the wormhole wedges."""

        def _eval_receiver(self, cycle):
            pass

    source = NetworkInterface("source", (0, 0), stats=stats)
    into, out = mesh.local_channels((0, 0))
    source.attach(to_router=into, from_router=out)
    sink = WedgedNI("wedged-sink", (1, 1), stats=stats)
    into, out = mesh.local_channels((1, 1))
    sink.attach(to_router=into, from_router=out)

    sim = Simulator()
    sim.add(mesh)
    sim.add(source)
    sim.add(sink)
    monitor = HealthMonitor(deadlock_cycles=400, check_interval=16)
    monitor.attach(sim, mesh=mesh, stats=stats, nis=[source, sink])

    source.send_packet(Packet(target=(1, 1), payload=[0xAB, 0xCD]))
    try:
        sim.step(5_000)
    except HealthViolation as violation:
        print(f"diagnosed: {violation}")
        print()
        print(monitor.describe())
        print()
        print("wait-for graph (JSON payload):")
        print(json.dumps(violation.details["wait_for"], indent=2))
        assert violation.kind == "deadlock"
        assert "wedged-sink.rx" in violation.details["wait_for"]["roots"]
        return
    raise AssertionError("the wedge must trip the deadlock watchdog")


def main() -> None:
    print("== healthy run ==")
    healthy_run()
    print()
    print("== wedged run ==")
    wedged_run()


if __name__ == "__main__":
    main()

"""Per-IP area model, calibrated against the paper's synthesis report.

Section 3: "The MultiNoC system uses 98% of the available slices and 78%
of the LUTs" of the XC2S200E.  The block-level constants below were
calibrated so the standard 2x2 configuration reproduces those two
figures exactly; the *formulas* (router cost growing with port count and
buffer bits, glue growing with IP count) then let the scaling and
buffer-depth experiments extrapolate credibly.

The router cost model follows the Hermes structure: a per-port share
(input controller, output mux tree) plus the buffer flip-flops
(``depth x flit_bits`` per port) plus the centralised control logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..noc.topology import Topology, parse_topology
from ..system.config import SystemConfig
from .device import FpgaDevice
from .resources import ResourceUse


def mesh_port_counts(width: int, height: int) -> List[int]:
    """Number of instantiated ports (neighbours + local) per router."""
    counts = []
    for y in range(height):
        for x in range(width):
            neighbours = sum(
                1
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= x + dx < width and 0 <= y + dy < height
            )
            counts.append(neighbours + 1)
    return counts


@dataclass
class AreaModel:
    """Block-level resource estimator.

    Every constant is a field so ablations can perturb them; the defaults
    are the calibrated values.
    """

    # Hermes router: base control + per-port logic + buffer bits.
    router_base_slices: int = 20
    router_port_slices: int = 16
    router_buffer_slices_per_bit: float = 1.0
    router_base_luts: int = 30
    router_port_luts: int = 32
    router_buffer_luts_per_bit: float = 0.5

    # Fixed-size blocks (slices, luts, ffs).
    r8_cost: Tuple[int, int, int] = (640, 1150, 330)
    proc_ctrl_cost: Tuple[int, int, int] = (90, 130, 60)
    mem_ctrl_cost: Tuple[int, int, int] = (60, 80, 25)
    serial_cost: Tuple[int, int, int] = (170, 230, 90)

    # Top-level glue per system, growing with IP count.
    glue_base_slices: int = 7
    glue_per_ip_slices: int = 6
    glue_base_luts: int = 11
    glue_per_ip_luts: int = 7

    brams_per_memory: int = 4

    # -- individual blocks ---------------------------------------------------

    def router(
        self, ports: int = 5, buffer_depth: int = 2, flit_bits: int = 8
    ) -> ResourceUse:
        buffer_bits = ports * buffer_depth * flit_bits
        slices = round(
            self.router_base_slices
            + self.router_port_slices * ports
            + self.router_buffer_slices_per_bit * buffer_bits
        )
        luts = round(
            self.router_base_luts
            + self.router_port_luts * ports
            + self.router_buffer_luts_per_bit * buffer_bits
        )
        ffs = buffer_bits + 6 * ports + 12
        return ResourceUse(slices, luts, ffs, 0)

    def r8(self) -> ResourceUse:
        return ResourceUse(*self.r8_cost, 0)

    def processor_control(self) -> ResourceUse:
        return ResourceUse(*self.proc_ctrl_cost, 0)

    def memory_ip(self) -> ResourceUse:
        s, l, f = self.mem_ctrl_cost
        return ResourceUse(s, l, f, self.brams_per_memory)

    def processor_ip(self) -> ResourceUse:
        """R8 + local Memory IP + control logic (paper Figure 5)."""
        return self.r8() + self.processor_control() + self.memory_ip()

    def serial_ip(self) -> ResourceUse:
        return ResourceUse(*self.serial_cost, 0)

    def glue(self, n_ips: int) -> ResourceUse:
        return ResourceUse(
            self.glue_base_slices + self.glue_per_ip_slices * n_ips,
            self.glue_base_luts + self.glue_per_ip_luts * n_ips,
            4 * n_ips,
            0,
        )

    # -- whole systems -------------------------------------------------------------

    def system(self, config: Optional[SystemConfig] = None) -> "AreaReport":
        """Itemised area of a MultiNoC instance."""
        config = config if config is not None else SystemConfig.paper()
        topo = config.topology_plugin()
        width, height = topo.width, topo.height
        items: Dict[str, ResourceUse] = {}
        port_counts = topo.port_counts()
        for i, ports in enumerate(port_counts):
            addr = (i % width, i // width)
            items[f"router{topo.label(addr)}"] = self.router(
                ports, config.buffer_depth
            )
        for pid in sorted(config.processors):
            items[f"proc{pid}"] = self.processor_ip()
        for i in range(len(config.memories)):
            items[f"mem{i}"] = self.memory_ip()
        items["serial"] = self.serial_ip()
        n_ips = 1 + len(config.processors) + len(config.memories)
        items["glue"] = self.glue(n_ips)
        return AreaReport(items)

    def noc_fraction(
        self,
        mesh,
        buffer_depth: int = 2,
        flit_bits: int = 8,
        ip_area_scale: float = 1.0,
    ) -> float:
        """Fraction of total logic area spent on the NoC.

        *mesh* is a ``(width, height)`` tuple, a topology spec string
        ("torus:8x8", "cmesh:4x4x2"), or a
        :class:`~repro.noc.topology.Topology`.  *ip_area_scale* models
        the paper's argument that "when more area is available, the IPs
        connected to the NoC can increase in area and functionality.
        The router surface will remain constant": scale=1 keeps today's
        processor IP, larger values model richer IPs on bigger devices.
        """
        topo = parse_topology(mesh)
        noc = sum(
            self.router(p, buffer_depth, flit_bits).slices
            for p in topo.port_counts()
        )
        # every attachment node but the serial one carries a processor IP
        ip = self.processor_ip().scaled(ip_area_scale).slices * (
            len(topo.nodes()) - 1
        ) + self.serial_ip().slices
        return noc / (noc + ip)


@dataclass
class AreaReport:
    """Itemised resource use with a total and utilisation helpers."""

    items: Dict[str, ResourceUse] = field(default_factory=dict)

    @property
    def total(self) -> ResourceUse:
        total = ResourceUse()
        for use in self.items.values():
            total = total + use
        return total

    def utilization(self, dev: FpgaDevice) -> dict:
        return self.total.utilization(dev)

    def noc_slices(self) -> int:
        return sum(
            use.slices for name, use in self.items.items() if name.startswith("router")
        )

    def noc_fraction(self) -> float:
        return self.noc_slices() / self.total.slices

    def table(self, dev: Optional[FpgaDevice] = None) -> str:
        """Synthesis-report-style utilisation table."""
        lines = [
            f"{'block':<12} {'slices':>7} {'LUTs':>7} {'FFs':>7} {'BRAMs':>6}"
        ]
        for name in sorted(self.items):
            u = self.items[name]
            lines.append(
                f"{name:<12} {u.slices:>7} {u.luts:>7} {u.ffs:>7} {u.brams:>6}"
            )
        t = self.total
        lines.append(
            f"{'TOTAL':<12} {t.slices:>7} {t.luts:>7} {t.ffs:>7} {t.brams:>6}"
        )
        if dev is not None:
            util = self.utilization(dev)
            lines.append(
                f"{dev.name}: {util['slices']:.0%} slices, "
                f"{util['luts']:.0%} LUTs, {util['brams']:.0%} BRAMs"
            )
        return "\n".join(lines)

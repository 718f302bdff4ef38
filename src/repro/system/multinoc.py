"""The MultiNoC system top level (paper Figure 1).

Wires the Hermes mesh, the Serial IP, the Processor IPs and the Memory
IPs into one simulatable component, exposing exactly the paper's
external interface: ``reset`` (the kernel's reset), ``clock`` (the
kernel's step), and the serial ``tx``/``rx`` lines to the host.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..memory.memory_ip import MemoryIp
from ..noc.flit import encode_address
from ..noc.mesh import Mesh
from ..noc.stats import NetworkStats
from ..serial.serial_ip import SerialIp
from ..sim import Component, Simulator, Wire
from .address_map import AddressMap
from .config import SystemConfig
from .processor_ip import ProcessorIp

Address = Tuple[int, int]


class MultiNoC(Component):
    """A complete MultiNoC instance built from a :class:`SystemConfig`."""

    def __init__(self, config: Optional[SystemConfig] = None, telemetry=None):
        config = config if config is not None else SystemConfig.paper()
        config.validate()
        super().__init__("multinoc")
        self.config = config
        self.telemetry = telemetry
        registry = telemetry.metrics if telemetry is not None else None
        self.stats = NetworkStats(registry=registry)

        self.topology = config.topology_plugin()
        self.mesh = Mesh(
            buffer_depth=config.buffer_depth,
            routing_cycles=config.routing_cycles,
            stats=self.stats,
            topology=self.topology,
        )
        self.add_child(self.mesh)

        # External serial lines (RS-232 idles high -> reset=1).
        self.rxd = Wire("multinoc.rxd", reset=1, width=1)  # host -> board
        self.txd = Wire("multinoc.txd", reset=1, width=1)  # board -> host

        self.serial = SerialIp(
            "serial",
            config.serial,
            rxd=self.rxd,
            txd=self.txd,
            tx_divisor=config.uart_divisor,
            stats=self.stats,
        )
        self._attach(self.serial.ni, config.serial)
        self.add_child(self.serial)

        id_to_flit = config.id_to_flit()
        self.processors: Dict[int, ProcessorIp] = {}
        for pid, addr in sorted(config.processors.items()):
            amap = self._build_address_map(pid)
            proc = ProcessorIp(
                f"proc{pid}",
                addr,
                proc_id=pid,
                address_map=amap,
                id_to_flit=id_to_flit,
                serial_flit=config.serial_flit(),
                local_words=config.local_words,
                stats=self.stats,
            )
            self._attach(proc.ni, addr)
            self.processors[pid] = proc
            self.add_child(proc)

        self.memories: List[MemoryIp] = []
        for i, addr in enumerate(config.memories):
            mem = MemoryIp(
                f"mem{i}", addr, depth=config.local_words, stats=self.stats
            )
            self._attach(mem.ni, addr)
            self.memories.append(mem)
            self.add_child(mem)

        if telemetry is not None:
            self.attach_telemetry(telemetry)

    # -- telemetry -----------------------------------------------------------

    def attach_telemetry(self, sink) -> None:
        """Enable event hooks on every router, NI, CPU and the Serial IP."""
        self.telemetry = sink
        self.mesh.attach_telemetry(sink)
        self.serial.attach_telemetry(sink)
        for proc in self.processors.values():
            proc.attach_telemetry(sink)
        for mem in self.memories:
            sink.track(mem.ni.name, process="noc")
            mem.ni.sink = sink

    def flush_telemetry(self) -> int:
        """Flush deferred telemetry (CPU PC samples) into the sink.

        Call once after a run, before exporting the trace; returns the
        number of sample buckets emitted.  Safe to call with telemetry
        disabled (returns 0).
        """
        if self.telemetry is None:
            return 0
        return sum(
            proc.cpu.flush_pc_samples() for proc in self.processors.values()
        )

    def attach_health(self, monitor, sim, host=None):
        """Wire a :class:`~repro.telemetry.health.HealthMonitor` to this
        system and *sim*; returns the monitor for chaining."""
        return monitor.attach(sim, self, host=host)

    def network_interfaces(self) -> List:
        """Every NI attached to the mesh (serial, processors, memories)."""
        nis = [self.serial.ni]
        nis += [p.ni for p in self.processors.values()]
        nis += [m.ni for m in self.memories]
        return nis

    # -- construction helpers ------------------------------------------------

    def _attach(self, ni, addr: Address) -> None:
        into, out = self.mesh.local_channels(addr)
        ni.attach(to_router=into, from_router=out)

    def _build_address_map(self, pid: int) -> AddressMap:
        """Figure 6's map, generalised: after local memory come windows
        for every *other* processor (by id) and then every Memory IP.

        The 16-bit address space caps how many remote windows fit below
        the FFFD-FFFF control cells.  When every window fits, the layout
        is exactly the id-ordered one of the seed; when the system is
        too big (the paper's hundred-IP argument) the Memory IPs and the
        peers *nearest in id order* get the windows and the rest are
        reached by message services instead.
        """
        config = self.config
        amap = AddressMap(config.local_words)
        # paper alignment: windows are 1K apart even if local_words < 1024
        step = max(config.local_words, 1024)
        base = step
        limit = 0xFFFD
        capacity = max(0, (limit - config.local_words - base) // step + 1)

        targets = [
            addr
            for other_pid, addr in sorted(config.processors.items())
            if other_pid != pid
        ] + list(config.memories)
        if len(targets) > capacity:
            near = sorted(
                (
                    (other_pid, addr)
                    for other_pid, addr in config.processors.items()
                    if other_pid != pid
                ),
                key=lambda pa: (abs(pa[0] - pid), pa[0]),
            )
            targets = list(config.memories) + [addr for _, addr in near]

        for addr in targets:
            if base + config.local_words > limit:
                break
            amap.add_window(base, config.local_words, encode_address(*addr))
            base += step
        return amap

    def numa_base(self, pid: int, target) -> Optional[int]:
        """Base address of *pid*'s NUMA window onto *target*.

        *target* is a peer processor id, a ``"memN"`` string, or an
        ``(x, y)`` node address; returns ``None`` when the window did
        not fit the 16-bit address space (see :meth:`_build_address_map`).
        """
        config = self.config
        if isinstance(target, int):
            addr = config.processors[target]
        elif isinstance(target, str) and target.startswith("mem"):
            addr = config.memories[int(target[3:] or "0")]
        else:
            addr = tuple(target)
        flit = encode_address(*addr)
        for window in self.processors[pid].address_map.windows:
            if window.target_flit == flit:
                return window.base
        return None

    # -- checkpointing -------------------------------------------------------

    def reset(self) -> None:
        super().reset()
        # in place: routers and NIs hold the stats' counter dicts
        self.stats.restore(NetworkStats().snapshot())

    def snapshot_state(self) -> dict:
        # the shared NetworkStats is system-level state (latency matching
        # keys in-flight packets); routers/NIs only hold references to it
        return {"stats": self.stats.snapshot()}

    def restore_state(self, state: dict) -> None:
        self.stats.restore(state["stats"])

    # -- convenience -------------------------------------------------------------

    def processor(self, pid: int) -> ProcessorIp:
        return self.processors[pid]

    def memory(self, index: int = 0) -> MemoryIp:
        return self.memories[index]

    @property
    def idle(self) -> bool:
        """No in-flight NoC traffic, serial activity or pending CPU stalls."""
        return (
            self.mesh.idle
            and not self.serial.busy
            and all(
                not p.ni.tx_busy and p.server_idle
                for p in self.processors.values()
            )
            and all(not m.noc_busy for m in self.memories)
        )

    @property
    def all_halted(self) -> bool:
        return all(p.cpu.halted for p in self.processors.values())

    def make_simulator(self, strict_lockstep: bool = False) -> Simulator:
        sim = Simulator(
            clock_hz=self.config.clock_hz, strict_lockstep=strict_lockstep
        )
        sim.add(self)
        return sim

"""Partial and dynamic reconfiguration (paper Section 5).

"One of the current research foci is on partial and dynamic
reconfiguration applied to the MultiNoC system.  Partial and dynamic
reconfiguration allows, for example, that the IP cores position be
modified in execution at run-time, favoring the IPs communication with
improved throughput.  Reconfiguration can also be used to reduce system
area consumption through insertion and removal of IP cores on demand."

This module models both uses on the running simulation:

* :meth:`ReconfigurationManager.relocate` — move a processor or memory
  IP to a free mesh node (shorter XY paths => lower NUMA latency),
* :meth:`ReconfigurationManager.swap` — exchange two IP positions,
* :meth:`ReconfigurationManager.remove_memory` /
  :meth:`insert_memory` — on-demand insertion/removal, with the area
  model quantifying the saved slices.

Like real partial reconfiguration, operations require the fabric to be
quiescent (no in-flight flits through the affected region): the manager
refuses to reconfigure while the network holds traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..memory.memory_ip import MemoryIp
from ..noc.flit import encode_address
from .multinoc import MultiNoC
from .processor_ip import ProcessorIp

Address = Tuple[int, int]


class ReconfigError(Exception):
    """Illegal reconfiguration request."""


class ReconfigurationManager:
    """Run-time placement changes for a live MultiNoC instance."""

    def __init__(self, system: MultiNoC):
        self.system = system
        self.reconfigurations = 0

    # -- helpers ------------------------------------------------------------

    def _occupied(self) -> Dict[Address, str]:
        config = self.system.config
        table: Dict[Address, str] = {config.serial: "serial"}
        for pid, addr in config.processors.items():
            table[addr] = f"proc{pid}"
        for i, addr in enumerate(config.memories):
            table[addr] = f"mem{i}"
        return table

    def _require_quiescent(self) -> None:
        if not self.system.mesh.idle:
            raise ReconfigError(
                "network not quiescent: reconfiguration with in-flight "
                "flits would corrupt wormholes"
            )

    def _check_target(self, new_addr: Address) -> None:
        width, height = self.system.config.mesh
        x, y = new_addr
        if not (0 <= x < width and 0 <= y < height):
            raise ReconfigError(f"{new_addr} is outside the mesh")
        holder = self._occupied().get(new_addr)
        if holder is not None:
            raise ReconfigError(f"{new_addr} is occupied by {holder}")

    def _move_ni(self, ip, new_addr: Address) -> None:
        """Re-wire an IP's network interface onto another Local port."""
        into, out = self.system.mesh.local_channels(new_addr)
        ip.ni.detach()
        ip.ni.attach(to_router=into, from_router=out)
        ip.ni.address = new_addr
        ip.noc_address = new_addr

    def _rebuild_address_maps(self) -> None:
        """Placement changed: regenerate every Figure 6 decoder and the
        wait/notify peer table in place (it is shared by reference)."""
        system = self.system
        id_to_flit = system.config.id_to_flit()
        for pid, proc in system.processors.items():
            proc.address_map = system._build_address_map(pid)
            proc.id_to_flit.clear()
            proc.id_to_flit.update(id_to_flit)

    # -- operations -----------------------------------------------------------

    def relocate(self, ip_name: str, new_addr: Address) -> None:
        """Move ``procN``/``memN`` to a free node.

        The serial IP is not relocatable: its pads are fixed on the die
        (Figure 7 places it next to the I/O pins for that reason).
        """
        self._require_quiescent()
        self._check_target(new_addr)
        system = self.system
        if ip_name.startswith("proc"):
            pid = int(ip_name[4:])
            if pid not in system.processors:
                raise ReconfigError(f"no such processor {ip_name!r}")
            self._move_ni(system.processors[pid], new_addr)
            system.config.processors[pid] = new_addr
        elif ip_name.startswith("mem"):
            index = int(ip_name[3:] or "0")
            if not 0 <= index < len(system.memories):
                raise ReconfigError(f"no such memory {ip_name!r}")
            self._move_ni(system.memories[index], new_addr)
            system.config.memories[index] = new_addr
        elif ip_name == "serial":
            raise ReconfigError("the serial IP is bonded to its I/O pads")
        else:
            raise ReconfigError(f"unknown IP {ip_name!r}")
        self._rebuild_address_maps()
        self.reconfigurations += 1

    def swap(self, ip_a: str, ip_b: str) -> None:
        """Exchange the positions of two relocatable IPs."""
        occupied = {name: addr for addr, name in self._occupied().items()}
        if ip_a not in occupied or ip_b not in occupied:
            raise ReconfigError(f"unknown IPs {ip_a!r}/{ip_b!r}")
        addr_a, addr_b = occupied[ip_a], occupied[ip_b]
        width, height = self.system.config.mesh
        # a temporary free slot is not needed: relocate in three steps via
        # direct rewiring (both NIs detach before reattaching).
        self._require_quiescent()
        if "serial" in (ip_a, ip_b):
            raise ReconfigError("the serial IP is bonded to its I/O pads")
        a = self._ip_by_name(ip_a)
        b = self._ip_by_name(ip_b)
        a.ni.detach()
        b.ni.detach()
        self._place(ip_a, a, addr_b)
        self._place(ip_b, b, addr_a)
        self._rebuild_address_maps()
        self.reconfigurations += 1

    def _ip_by_name(self, name: str):
        if name.startswith("proc"):
            return self.system.processors[int(name[4:])]
        return self.system.memories[int(name[3:] or "0")]

    def _place(self, name: str, ip, addr: Address) -> None:
        into, out = self.system.mesh.local_channels(addr)
        ip.ni.attach(to_router=into, from_router=out)
        ip.ni.address = addr
        ip.noc_address = addr
        if name.startswith("proc"):
            self.system.config.processors[int(name[4:])] = addr
        else:
            self.system.config.memories[int(name[3:] or "0")] = addr

    def remove_memory(self, index: int = 0) -> MemoryIp:
        """Remove a Memory IP on demand; returns it (state preserved).

        The freed node's Local port goes silent; the area model's view of
        the configuration shrinks accordingly.  A memory whose server or
        network interface still holds work (a request running or queued,
        a packet to send or to decode) is refused: removing it would drop
        that work.
        """
        self._require_quiescent()
        system = self.system
        if not 0 <= index < len(system.memories):
            raise ReconfigError(f"no memory {index}")
        mem = system.memories[index]
        if mem.noc_busy or mem.ni.received:
            raise ReconfigError(
                f"memory {index} is busy: removing it would drop the "
                "work its server or network interface holds"
            )
        system.memories.pop(index)
        system.config.memories.pop(index)
        mem.ni.detach()
        mem.ni.network = mem.banks.system = None
        system.remove_child(mem)
        system._recount()
        self._rebuild_address_maps()
        self.reconfigurations += 1
        return mem

    def insert_memory(self, addr: Address, depth: int = 1024) -> MemoryIp:
        """Insert a fresh Memory IP at a free node, at run time."""
        self._require_quiescent()
        self._check_target(addr)
        system = self.system
        index = len(system.memories)
        mem = MemoryIp(f"mem{index}", addr, depth=depth, stats=system.stats)
        system._attach(mem.ni, addr)
        mem.banks.system = system
        system.memories.append(mem)
        system.config.memories.append(addr)
        system.add_child(mem)
        self._rebuild_address_maps()
        self.reconfigurations += 1
        return mem

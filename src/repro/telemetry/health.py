"""Online health monitoring: watchdogs and invariant checks.

The passive telemetry layer (events, metrics, exporters) records what the
platform did; this module watches it *while it runs* and localises
pathologies instead of letting them surface as a bare timeout.  A single
:class:`HealthMonitor` rides the simulator's watcher hook
(:meth:`~repro.sim.kernel.Simulator.add_watcher`) and has two pillars:

**Watchdogs** — always on while attached, evaluated every
``check_interval`` cycles:

* *deadlock*: no flit handshake anywhere in the mesh while packets are
  in flight (or routers hold state) for ``deadlock_cycles`` — builds the
  port wait-for graph and names the blocking cycle or root blocker;
* *starvation*: the oldest in-flight packet exceeds ``max_packet_age``;
* *cpu stall*: an active R8 core whose ``(pc, retired)`` progress tuple
  is frozen for ``cpu_stall_cycles``;
* *host timeout*: a host serial transaction open longer than
  ``host_transaction_cycles``.

**Invariant checks** — opt-in (``invariants=True``), per-cycle with
``check_interval=1`` or strided otherwise:

* packet conservation: ``injected == delivered - unmatched + in_flight
  + pruned``;
* flit conservation per router: FIFO occupancy equals flits received
  minus flits sent (assumes no mid-run ``reset()``);
* FIFO occupancy bounds: ``0 <= len <= capacity``;
* XY-routing legality of every open connection (no illegal turns);
* single-producer discipline: each output port owned by at most one
  input, consistently in both direction tables.

Time series come from the live stream, the one strided view of a
running system (:mod:`repro.telemetry.live`): ``multinoc system
--health-report`` folds its frames into the report's ``sampler``
section (:class:`~repro.telemetry.top.FrameSeries`).

Every failure is a structured :class:`HealthViolation` naming component,
cycle and a state snapshot; ``on_violation="record"`` collects instead
of raising.  A detached simulation is bit-identical to an unmonitored
one: the monitor only observes, never drives, and the simulator pays a
single ``None``-check on the cold timeout path when no monitor is
attached.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..noc.routing import OPPOSITE, Port
from ..noc.topology import port_label

Address = Tuple[int, int]


class HealthViolation(Exception):
    """A watchdog or invariant failure, with a structured payload.

    Attributes
    ----------
    kind:
        ``"deadlock"``, ``"starvation"``, ``"cpu_stall"``,
        ``"host_timeout"`` or ``"invariant.<name>"``.
    component:
        Name of the failing component (router, core, NI, "noc", "host").
    cycle:
        Simulation cycle at which the violation was detected.
    details:
        JSON-friendly state snapshot; for deadlocks this carries the
        wait-for graph, FIFO snapshots and last-movement cycles.
    """

    def __init__(
        self,
        kind: str,
        component: str,
        cycle: int,
        message: str,
        details: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(f"[{kind}] {component} @cycle {cycle}: {message}")
        self.kind = kind
        self.component = component
        self.cycle = cycle
        self.message = message
        self.details: Dict[str, Any] = details if details is not None else {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "component": self.component,
            "cycle": self.cycle,
            "message": self.message,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------------


class HealthMonitor:
    """Runtime health monitor for a simulated MultiNoC (or bare mesh).

    Parameters
    ----------
    check_interval:
        Watchdogs and invariants run every this many cycles (1 =
        per-cycle).
    deadlock_cycles / max_packet_age / cpu_stall_cycles /
    host_transaction_cycles:
        Watchdog thresholds in cycles; ``None`` disables that watchdog.
    invariants:
        Enable the online invariant checks (opt-in: they walk every
        router per check).
    on_violation:
        ``"raise"`` (default) raises the :class:`HealthViolation`;
        ``"record"`` collects it in :attr:`violations` (deduplicated by
        (kind, component)) and keeps running.
    """

    def __init__(
        self,
        *,
        check_interval: int = 64,
        deadlock_cycles: Optional[int] = 2_000,
        max_packet_age: Optional[int] = 50_000,
        cpu_stall_cycles: Optional[int] = 200_000,
        host_transaction_cycles: Optional[int] = 1_000_000,
        invariants: bool = False,
        on_violation: str = "raise",
    ):
        if check_interval < 1:
            raise ValueError("check_interval must be at least 1 cycle")
        if on_violation not in ("raise", "record"):
            raise ValueError("on_violation must be 'raise' or 'record'")
        self.check_interval = check_interval
        self.deadlock_cycles = deadlock_cycles
        self.max_packet_age = max_packet_age
        self.cpu_stall_cycles = cpu_stall_cycles
        self.host_transaction_cycles = host_transaction_cycles
        self.invariants = invariants
        self.on_violation = on_violation

        self.sim = None
        self.mesh = None
        self.topology = None
        self.stats = None
        self.nis: List[Any] = []
        self.processors: List[Any] = []
        self.host = None
        self.violations: List[HealthViolation] = []
        self._recorded_keys: set = set()
        self.checks_run = 0

        self._router_totals: Dict[Address, int] = {}
        self._last_router_movement: Dict[Address, int] = {}
        self._last_global_movement = 0
        self._cpu_progress: Dict[str, Tuple[Optional[tuple], int]] = {}
        self._reported_starvation: Optional[tuple] = None
        self._reported_host_txn: Optional[tuple] = None

    # -- wiring ------------------------------------------------------------

    def attach(
        self,
        sim,
        system=None,
        *,
        mesh=None,
        stats=None,
        nis: Iterable[Any] = (),
        processors: Iterable[Any] = (),
        host=None,
    ) -> "HealthMonitor":
        """Hook into *sim* via its watcher list; returns self.

        Pass a :class:`~repro.system.multinoc.MultiNoC` as *system* to
        wire everything (mesh, stats, NIs, processors) automatically, or
        give the pieces explicitly for bare-mesh testbenches.
        """
        if system is not None:
            mesh = system.mesh
            stats = system.stats
            nis = system.network_interfaces()
            processors = list(system.processors.values())
        self.sim = sim
        self.mesh = mesh
        self.topology = mesh.topology if mesh is not None else None
        self.stats = stats
        self.nis = list(nis)
        self.processors = list(processors)
        self.host = host

        cycle = sim.cycle
        self._last_global_movement = cycle
        if stats is not None:
            self._router_totals = stats.per_router_movement()
        if mesh is not None:
            for addr in mesh.routers:
                self._last_router_movement[addr] = cycle
        for proc in self.processors:
            self._cpu_progress[proc.name] = (None, cycle)

        # strided watchers keep firing inside idle fast-forward spans,
        # where all checked state is frozen, so the replayed calls see
        # exactly what lock-step would have shown
        sim.add_watcher(self._run_checks, self.check_interval)
        sim.health = self
        return self

    def detach(self) -> None:
        """Unhook from the simulator; the run continues unmonitored."""
        if self.sim is not None:
            self.sim.remove_watcher(self._run_checks)
            if self.sim.health is self:
                self.sim.health = None

    # -- the strided check hook ---------------------------------------------

    def _run_checks(self, cycle: int) -> None:
        self.checks_run += 1
        if self.stats is not None:
            self._update_movement(cycle)
            if self.deadlock_cycles is not None and self.mesh is not None:
                self._check_deadlock(cycle)
            if self.max_packet_age is not None:
                self._check_starvation(cycle)
        if self.cpu_stall_cycles is not None:
            self._check_cpu_stall(cycle)
        if self.host_transaction_cycles is not None and self.host is not None:
            self._check_host_transaction(cycle)
        if self.invariants:
            self.check_invariants(cycle)

    def _violate(
        self,
        kind: str,
        component: str,
        cycle: int,
        message: str,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        violation = HealthViolation(kind, component, cycle, message, details)
        if self.on_violation == "raise":
            raise violation
        key = (kind, component)
        if key not in self._recorded_keys:
            self._recorded_keys.add(key)
            self.violations.append(violation)

    # -- watchdogs ----------------------------------------------------------

    def _update_movement(self, cycle: int) -> None:
        totals = self.stats.per_router_movement()
        moved = False
        for addr, count in totals.items():
            if count != self._router_totals.get(addr):
                self._last_router_movement[addr] = cycle
                moved = True
        self._router_totals = totals
        if moved:
            self._last_global_movement = cycle

    def _check_deadlock(self, cycle: int) -> None:
        if cycle - self._last_global_movement < self.deadlock_cycles:
            return
        active = self.stats.in_flight_count > 0 or any(
            r.busy for r in self.mesh.routers.values()
        )
        if not active:
            # quiet network, nothing pending: re-arm silently
            self._last_global_movement = cycle
            return
        graph = self.wait_graph()
        stalled = cycle - self._last_global_movement
        if graph["cycle_nodes"]:
            where = " -> ".join(graph["cycle_nodes"])
            blocked_at = f"wait-for cycle {where}"
        elif graph["roots"]:
            blocked_at = "root blocker " + ", ".join(graph["roots"])
        else:
            blocked_at = "no blocked edge found (control logic wedged?)"
        component = (
            graph["cycle_nodes"][0]
            if graph["cycle_nodes"]
            else (graph["roots"][0] if graph["roots"] else "noc")
        )
        self._last_global_movement = cycle  # re-arm for record mode
        self._violate(
            "deadlock",
            component,
            cycle,
            f"no flit movement for {stalled} cycles with "
            f"{self.stats.in_flight_count} packet(s) in flight; {blocked_at}",
            details={
                "stalled_cycles": stalled,
                "in_flight": self.stats.in_flight_count,
                "wait_for": graph,
                "fifo_snapshots": self.fifo_snapshots(),
                "last_movement": {
                    r.name: self._last_router_movement.get(addr)
                    for addr, r in self.mesh.routers.items()
                },
            },
        )

    def _check_starvation(self, cycle: int) -> None:
        oldest = self.stats.oldest_in_flight()
        if oldest is None:
            self._reported_starvation = None
            return
        stamp, key = oldest
        age = cycle - stamp
        if age < self.max_packet_age or oldest == self._reported_starvation:
            return
        self._reported_starvation = oldest
        target, payload = key
        self._violate(
            "starvation",
            f"packet->{target[0]},{target[1]}",
            cycle,
            f"oldest in-flight packet (target {target}, "
            f"{len(payload)} payload flits) injected at cycle {stamp} "
            f"is {age} cycles old",
            details={
                "target": list(target),
                "payload_flits": len(payload),
                "injected_cycle": stamp,
                "age": age,
                "in_flight": self.stats.in_flight_count,
            },
        )

    def _check_cpu_stall(self, cycle: int) -> None:
        for proc in self.processors:
            cpu = proc.cpu
            name = proc.name
            if cpu.halted:
                self._cpu_progress[name] = (None, cycle)
                continue
            progress = cpu.progress
            last_progress, last_cycle = self._cpu_progress.get(
                name, (None, cycle)
            )
            if progress != last_progress:
                self._cpu_progress[name] = (progress, cycle)
                continue
            stalled = cycle - last_cycle
            if stalled < self.cpu_stall_cycles:
                continue
            self._cpu_progress[name] = (progress, cycle)  # re-arm
            self._violate(
                "cpu_stall",
                name,
                cycle,
                f"active core at pc {progress[0]:#06x} made no progress "
                f"for {stalled} cycles (state {cpu.fsm_state})",
                details={"stalled_cycles": stalled, **proc.probe_state()},
            )

    def _check_host_transaction(self, cycle: int) -> None:
        txn = getattr(self.host, "current_transaction", None)
        if txn is None:
            self._reported_host_txn = None
            return
        label, start = txn
        open_for = cycle - start
        if open_for < self.host_transaction_cycles or txn == self._reported_host_txn:
            return
        self._reported_host_txn = txn
        self._violate(
            "host_timeout",
            self.host.name,
            cycle,
            f"serial transaction '{label}' started at cycle {start} "
            f"still open after {open_for} cycles",
            details={"transaction": label, "started": start, "open_for": open_for},
        )

    # -- invariants ----------------------------------------------------------

    def check_invariants(self, cycle: Optional[int] = None) -> None:
        """Run every invariant once (also callable directly from tests)."""
        cycle = cycle if cycle is not None else (
            self.sim.cycle if self.sim is not None else 0
        )
        if self.stats is not None:
            self._check_packet_conservation(cycle)
        if self.mesh is None:
            return
        received: Dict[Address, int] = {}
        sent: Dict[Address, int] = {}
        if self.stats is not None:
            for (addr, _), n in self.stats.flits_received.items():
                received[addr] = received.get(addr, 0) + n
            for (addr, _), n in self.stats.flits_sent.items():
                sent[addr] = sent.get(addr, 0) + n
        for addr, router in self.mesh.routers.items():
            self._check_router_invariants(
                cycle, router, received.get(addr, 0), sent.get(addr, 0)
            )

    def _check_packet_conservation(self, cycle: int) -> None:
        s = self.stats
        expected = (
            s.packets_injected
            - (s.packets_delivered - s.unmatched_deliveries)
            - s.packets_dropped
        )
        if expected != s.in_flight_count:
            self._violate(
                "invariant.packet_conservation",
                "noc",
                cycle,
                f"injected - delivered + unmatched - pruned = {expected} "
                f"but in-flight count is {s.in_flight_count}",
                details={
                    "injected": s.packets_injected,
                    "delivered": s.packets_delivered,
                    "unmatched": s.unmatched_deliveries,
                    "pruned": s.packets_dropped,
                    "in_flight": s.in_flight_count,
                },
            )

    def _check_router_invariants(
        self, cycle: int, router, received: int, sent: int
    ) -> None:
        occupancy = 0
        for port, fifo in enumerate(router.fifos):
            n = len(fifo)
            occupancy += n
            if not 0 <= n <= fifo.capacity:
                self._violate(
                    "invariant.fifo_bounds",
                    router.name,
                    cycle,
                    f"port {port_label(port)} FIFO holds {n} flits "
                    f"(capacity {fifo.capacity})",
                    details={"port": port_label(port), "occupancy": n,
                             "capacity": fifo.capacity},
                )
        if self.stats is not None and occupancy != received - sent:
            self._violate(
                "invariant.flit_conservation",
                router.name,
                cycle,
                f"FIFOs hold {occupancy} flits but counters say "
                f"{received} received - {sent} sent = {received - sent}",
                details={"occupancy": occupancy, "received": received,
                         "sent": sent,
                         "fifos": [f.snapshot() for f in router.fifos]},
            )
        topo = self.topology
        for in_port, out_port in enumerate(router.in_conn):
            if out_port is None:
                continue
            if not topo.legal_turn(in_port, out_port):
                mesh_like = topo.kind == "mesh"
                self._violate(
                    "invariant.xy_routing"
                    if mesh_like
                    else "invariant.route_legality",
                    router.name,
                    cycle,
                    f"connection {port_label(in_port)} -> "
                    f"{port_label(out_port)} is an illegal "
                    + ("XY turn" if mesh_like
                       else f"turn for {topo.spec} routing"),
                    details={"in_port": port_label(in_port),
                             "out_port": port_label(out_port),
                             "state": router.probe_state()},
                )
        for out_port in range(router.N_PORTS):
            owners = [
                p
                for p in range(router.N_PORTS)
                if router.in_conn[p] == out_port
            ]
            owner = router.out_owner[out_port]
            consistent = (
                (not owners and owner is None)
                or (len(owners) == 1 and owners[0] == owner)
            )
            if not consistent:
                self._violate(
                    "invariant.single_producer",
                    router.name,
                    cycle,
                    f"output {port_label(out_port)} claimed by inputs "
                    f"{[port_label(p) for p in owners]} but owner table "
                    f"says {port_label(owner) if owner is not None else None}",
                    details={"out_port": port_label(out_port),
                             "claimants": [port_label(p) for p in owners],
                             "owner": (port_label(owner)
                                       if owner is not None else None),
                             "state": router.probe_state()},
                )

    # -- diagnostics ----------------------------------------------------------

    def wait_graph(self) -> Dict[str, Any]:
        """The port wait-for graph of the mesh, with blocked edges marked.

        Nodes are ``"component.PORT"`` strings; an edge A -> B means A
        cannot make progress until B does.  ``cycle_nodes`` is the first
        cycle found over blocked edges (a true cyclic deadlock — XY
        routing excludes these, so one indicates a routing bug);
        ``roots`` are blocked sinks: nodes others wait on that wait on
        nothing themselves (a wedged consumer, a dead NI).
        """
        edges: List[Dict[str, Any]] = []
        ni_at = {ni.address: ni for ni in self.nis}
        for addr, router in self.mesh.routers.items():
            for port in range(router.N_PORTS):
                node = f"{router.name}.{port_label(port)}"
                conn = router.in_conn[port]
                if conn is not None:
                    dst, blocked, reason = self._downstream(
                        router, conn, ni_at
                    )
                    edges.append(
                        {"src": node, "dst": dst, "reason": reason,
                         "blocked": blocked}
                    )
                    continue
                target = router.pending_header_target(port)
                if target is None:
                    continue
                out = self.topology.route(addr, target)
                owner = router.out_owner[out]
                if owner is not None:
                    edges.append(
                        {
                            "src": node,
                            "dst": f"{router.name}.{port_label(owner)}",
                            "reason": f"output {port_label(out)} held by "
                            f"input {port_label(owner)}",
                            "blocked": True,
                        }
                    )
                else:
                    edges.append(
                        {
                            "src": node,
                            "dst": f"{router.name}.CTRL",
                            "reason": f"awaiting route to "
                            f"{target[0]},{target[1]}",
                            "blocked": False,
                        }
                    )
        nodes = sorted(
            {e["src"] for e in edges} | {e["dst"] for e in edges}
        )
        blocked_edges = [e for e in edges if e["blocked"]]
        cycle_nodes = _find_cycle(blocked_edges)
        sources = {e["src"] for e in blocked_edges}
        roots = sorted(
            {e["dst"] for e in blocked_edges if e["dst"] not in sources}
        )
        return {
            "nodes": nodes,
            "edges": edges,
            "cycle_nodes": cycle_nodes,
            "roots": roots,
        }

    def _downstream(
        self, router, out_port: int, ni_at: Dict[Address, Any]
    ) -> Tuple[str, bool, str]:
        """(node, blocked, reason) for an established connection's sink."""
        topo = self.topology
        if out_port >= Port.LOCAL:
            ni = ni_at.get(topo.port_node(router.address, out_port))
            name = ni.name if ni is not None else f"{router.name}.local-ip"
            ch = router.out_ch[out_port]
            blocked = bool(ch.tx.value) and not bool(ch.ack.value)
            return f"{name}.rx", blocked, "delivering to local IP"
        neighbour = self.mesh.routers[topo.neighbour(router.address, out_port)]
        in_port = OPPOSITE[Port(out_port)]
        blocked = neighbour.fifos[in_port].is_full
        return (
            f"{neighbour.name}.{in_port.name}",
            blocked,
            f"streaming out {port_label(out_port)}",
        )

    def fifo_snapshots(self) -> Dict[str, Dict[str, List[int]]]:
        """Per-router, per-port FIFO contents (oldest flit first)."""
        if self.mesh is None:
            return {}
        return {
            router.name: {
                port_label(p): router.fifos[p].snapshot()
                for p in range(router.N_PORTS)
                if not router.fifos[p].is_empty
            }
            for router in self.mesh.routers.values()
        }

    def diagnostics(self) -> Dict[str, Any]:
        """The full diagnostic dump attached to diagnosed failures."""
        if self.sim is not None:
            # a sleeping unit's counters and control state lag until its
            # idle credit is settled
            self.sim.settle()
        cycle = self.sim.cycle if self.sim is not None else 0
        out: Dict[str, Any] = {"cycle": cycle}
        if self.stats is not None:
            s = self.stats
            oldest = s.oldest_in_flight()
            out["packets"] = {
                "injected": s.packets_injected,
                "delivered": s.packets_delivered,
                "in_flight": s.in_flight_count,
                "unmatched": s.unmatched_deliveries,
                "pruned": s.packets_dropped,
            }
            if oldest is not None:
                stamp, (target, payload) = oldest
                out["oldest_in_flight"] = {
                    "target": list(target),
                    "payload_flits": len(payload),
                    "injected_cycle": stamp,
                    "age": cycle - stamp,
                }
        if self.mesh is not None:
            out["wait_for"] = self.wait_graph()
            out["fifo_snapshots"] = self.fifo_snapshots()
            out["last_movement"] = {
                router.name: self._last_router_movement.get(addr)
                for addr, router in self.mesh.routers.items()
            }
            out["routers"] = {
                router.name: router.probe_state()
                for router in self.mesh.routers.values()
            }
        if self.nis:
            out["network_interfaces"] = {
                ni.name: ni.probe_state() for ni in self.nis
            }
        if self.processors:
            out["processors"] = {
                proc.name: proc.probe_state() for proc in self.processors
            }
        if self.host is not None:
            out["host_transaction"] = getattr(
                self.host, "current_transaction", None
            )
        out["violations"] = [v.as_dict() for v in self.violations]
        return out

    def describe(self, diagnostics: Optional[Dict[str, Any]] = None) -> str:
        """Human-readable summary of a diagnostic dump."""
        diag = diagnostics if diagnostics is not None else self.diagnostics()
        lines = [f"health diagnostics @cycle {diag['cycle']}:"]
        packets = diag.get("packets")
        if packets:
            lines.append(
                f"  packets: {packets['injected']} injected / "
                f"{packets['delivered']} delivered / "
                f"{packets['in_flight']} in flight"
            )
        oldest = diag.get("oldest_in_flight")
        if oldest:
            lines.append(
                f"  oldest in flight: -> {oldest['target'][0]},"
                f"{oldest['target'][1]}, injected @{oldest['injected_cycle']}"
                f" ({oldest['age']} cycles ago)"
            )
        graph = diag.get("wait_for")
        if graph:
            blocked = [e for e in graph["edges"] if e["blocked"]]
            if graph["cycle_nodes"]:
                lines.append(
                    "  wait-for cycle: " + " -> ".join(graph["cycle_nodes"])
                )
            for edge in blocked:
                lines.append(
                    f"  blocked: {edge['src']} waits on {edge['dst']} "
                    f"({edge['reason']})"
                )
            for root in graph["roots"]:
                lines.append(f"  root blocker: {root}")
        snapshots = diag.get("fifo_snapshots")
        if snapshots:
            for router, ports in sorted(snapshots.items()):
                for port, flits in sorted(ports.items()):
                    lines.append(
                        f"  {router}.{port} holds "
                        f"{[f'{f:#04x}' for f in flits]}"
                    )
        last = diag.get("last_movement")
        if last:
            stalled = {
                name: at
                for name, at in last.items()
                if at is not None and diag["cycle"] - at > self.check_interval
            }
            for name, at in sorted(stalled.items()):
                lines.append(
                    f"  {name}: last flit movement @cycle {at} "
                    f"({diag['cycle'] - at} cycles ago)"
                )
        host_txn = diag.get("host_transaction")
        if host_txn:
            lines.append(
                f"  host transaction '{host_txn[0]}' open since "
                f"cycle {host_txn[1]}"
            )
        if diag.get("violations"):
            lines.append(f"  recorded violations: {len(diag['violations'])}")
        return "\n".join(lines)

    def report(
        self, sampler: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """JSON-friendly health report (the CLI's ``--health-report``).

        *sampler* is stored verbatim under ``"sampler"``: the CLI passes
        the ``as_dict()`` of a :class:`~repro.telemetry.top.FrameSeries`
        folded from the run's live frames.
        """
        return {
            "schema": "multinoc-health/1",
            "cycle": self.sim.cycle if self.sim is not None else 0,
            "config": {
                "check_interval": self.check_interval,
                "deadlock_cycles": self.deadlock_cycles,
                "max_packet_age": self.max_packet_age,
                "cpu_stall_cycles": self.cpu_stall_cycles,
                "host_transaction_cycles": self.host_transaction_cycles,
                "invariants": self.invariants,
                "on_violation": self.on_violation,
            },
            "checks_run": self.checks_run,
            "violations": [v.as_dict() for v in self.violations],
            "sampler": sampler,
            "diagnostics": self.diagnostics(),
        }


def _find_cycle(edges: List[Dict[str, Any]]) -> List[str]:
    """First cycle in the directed graph given by *edges*, or []."""
    adjacency: Dict[str, List[str]] = {}
    for edge in edges:
        adjacency.setdefault(edge["src"], []).append(edge["dst"])
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[str, int] = {}
    for start in adjacency:
        if colour.get(start, WHITE) != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(start, 0)]
        path: List[str] = []
        colour[start] = GREY
        path.append(start)
        while stack:
            node, index = stack[-1]
            successors = adjacency.get(node, [])
            if index >= len(successors):
                stack.pop()
                path.pop()
                colour[node] = BLACK
                continue
            stack[-1] = (node, index + 1)
            nxt = successors[index]
            state = colour.get(nxt, WHITE)
            if state == GREY:
                at = path.index(nxt)
                return path[at:] + [nxt]
            if state == WHITE:
                colour[nxt] = GREY
                path.append(nxt)
                stack.append((nxt, 0))
    return []

"""Network statistics collection.

Routers and network interfaces call into a shared :class:`NetworkStats`
instance; benchmarks read the aggregates (latency distribution, accepted
throughput, blocking) from it.

Since the telemetry refactor the counters live in a
:class:`~repro.telemetry.metrics.MetricsRegistry`, so the NoC aggregates
share an export path (Prometheus text, JSON snapshot) with any metric a
component registers ad hoc.  The benchmark-facing API is unchanged: the
per-flit hook sites still mutate plain dicts (aliased from the
registry's counters), so the hot path costs exactly what it did before.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..telemetry.metrics import MetricsRegistry
from .packet import Packet

Address = Tuple[int, int]


class NetworkStats:
    """Counters shared across routers and network interfaces."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        # Per-flit counters change on every handshake, so routers bump
        # these label dicts directly, through keys built at attach time.
        self.flits_received = r.counter(
            "noc_flits_received_total", "flits accepted per (router, port)"
        ).samples
        self.flits_sent = r.counter(
            "noc_flits_sent_total", "flits emitted per (router, port)"
        ).samples
        self.stall_cycles = r.counter(
            "noc_stall_cycles_total", "cycles a full buffer refused a flit"
        ).samples
        self.blocked_routings = r.counter(
            "noc_routing_blocked_total", "arbitration rounds lost to a busy port"
        ).samples
        self.connections_opened = r.counter(
            "noc_connections_opened_total", "wormhole connections established"
        ).samples
        self.connections_closed = r.counter(
            "noc_connections_closed_total", "wormhole connections torn down"
        ).samples
        self._packets_injected = r.counter(
            "noc_packets_injected_total", "packets fully injected by NIs"
        )
        self._packets_delivered = r.counter(
            "noc_packets_delivered_total", "packets fully reassembled by NIs"
        )
        self._delivered_flits = r.counter(
            "noc_delivered_flits_total", "on-wire flits of delivered packets"
        )
        self._unmatched = r.counter(
            "noc_unmatched_deliveries_total",
            "deliveries with no matching injection stamp",
        )
        self._pruned = r.counter(
            "noc_packets_pruned_total",
            "in-flight stamps dropped as undeliverable",
        )
        self._latency = r.histogram(
            "noc_packet_latency_cycles", "injection-to-delivery latency"
        )
        self.latencies: List[int] = self._latency.values
        self._in_flight: Dict[tuple, list] = {}
        r.gauge(
            "noc_packets_in_flight", "injected packets not yet delivered"
        ).set_function(lambda: self.in_flight_count)

    # -- checkpointing ------------------------------------------------------

    @staticmethod
    def _key_out(key):
        """Tuple (possibly nested) -> JSON-safe nested lists."""
        if isinstance(key, tuple):
            return [NetworkStats._key_out(k) for k in key]
        return key

    @staticmethod
    def _key_in(key):
        """Nested lists back to the tuple keys the hot paths use."""
        if isinstance(key, list):
            return tuple(NetworkStats._key_in(k) for k in key)
        return key

    def snapshot(self) -> dict:
        def dump(samples):
            return sorted(
                [self._key_out(k), v] for k, v in samples.items()
            )

        return {
            "flits_received": dump(self.flits_received),
            "flits_sent": dump(self.flits_sent),
            "stall_cycles": dump(self.stall_cycles),
            "blocked_routings": dump(self.blocked_routings),
            "connections_opened": dump(self.connections_opened),
            "connections_closed": dump(self.connections_closed),
            "packets_injected": self._packets_injected.value,
            "packets_delivered": self._packets_delivered.value,
            "delivered_flits": self._delivered_flits.value,
            "unmatched": self._unmatched.value,
            "pruned": self._pruned.value,
            "latencies": list(self.latencies),
            "in_flight": sorted(
                [self._key_out(k), list(stamps)]
                for k, stamps in self._in_flight.items()
            ),
        }

    def restore(self, state: dict) -> None:
        def load(samples, dumped):
            # mutate in place: the dicts are aliased by the hot paths
            samples.clear()
            for k, v in dumped:
                samples[self._key_in(k)] = v

        load(self.flits_received, state["flits_received"])
        load(self.flits_sent, state["flits_sent"])
        load(self.stall_cycles, state["stall_cycles"])
        load(self.blocked_routings, state["blocked_routings"])
        load(self.connections_opened, state["connections_opened"])
        load(self.connections_closed, state["connections_closed"])
        self._packets_injected._value = state["packets_injected"]
        self._packets_delivered._value = state["packets_delivered"]
        self._delivered_flits._value = state["delivered_flits"]
        self._unmatched._value = state["unmatched"]
        self._pruned._value = state["pruned"]
        self.latencies[:] = state["latencies"]
        self._in_flight = {
            self._key_in(k): list(stamps)
            for k, stamps in state["in_flight"]
        }

    # -- hooks called by the models ---------------------------------------

    def routing_blocked(self, router: Address, n: int = 1) -> None:
        """Count *n* routing decisions at *router* that found their
        output busy (a sleeping router credits its replayed ones)."""
        self.blocked_routings[router] += n

    def connection_opened(self, router: Address) -> None:
        self.connections_opened[router] += 1

    def connection_closed(self, router: Address) -> None:
        self.connections_closed[router] += 1

    def packet_injected(self, packet: Packet) -> None:
        """Record an injection; remember its cycle for latency matching.

        A delivered packet is a fresh object reassembled from flits, so the
        injection stamp cannot ride along.  Packets are matched FIFO on
        (target, payload) — identical concurrent packets are
        interchangeable for latency purposes.
        """
        self._packets_injected.inc()
        key = (packet.target, tuple(packet.payload))
        self._in_flight.setdefault(key, []).append(packet.injected_cycle)

    def packet_delivered(self, packet: Packet, at: Address) -> None:
        self._packets_delivered.inc()
        self._delivered_flits.inc(packet.size_flits)
        key = (packet.target, tuple(packet.payload))
        pending = self._in_flight.get(key)
        if pending:
            packet.injected_cycle = pending.pop(0)
            if not pending:
                # drop the empty list: long runs with many distinct
                # payloads must not accumulate dead keys
                del self._in_flight[key]
        else:
            self._unmatched.inc()
        if packet.latency is not None:
            self._latency.record(packet.latency)

    # -- in-flight bookkeeping ---------------------------------------------

    @property
    def in_flight_count(self) -> int:
        """Injected packets whose delivery has not (yet) been matched."""
        return sum(len(stamps) for stamps in self._in_flight.values())

    def per_router_movement(self) -> Dict[Address, int]:
        """Per-router flit handshake totals (received + sent).

        Sampled periodically by the health monitor to maintain the
        "last-movement cycle per router" diagnostic.
        """
        totals: Dict[Address, int] = {}
        for (addr, _), count in self.flits_received.items():
            totals[addr] = totals.get(addr, 0) + count
        for (addr, _), count in self.flits_sent.items():
            totals[addr] = totals.get(addr, 0) + count
        return totals

    def oldest_in_flight(self) -> Optional[Tuple[int, tuple]]:
        """(injection cycle, match key) of the oldest undelivered packet.

        The match key is ``(target, payload_tuple)``; ``None`` when no
        stamped packet is in flight.  Drives the packet-age starvation
        watchdog.
        """
        best: Optional[Tuple[int, tuple]] = None
        for key, stamps in self._in_flight.items():
            for stamp in stamps:
                if stamp is None:
                    continue
                if best is None or stamp < best[0]:
                    best = (stamp, key)
        return best

    @property
    def packets_dropped(self) -> int:
        """Stamps pruned as undeliverable (lost regions, dead endpoints)."""
        return self._pruned.value

    @property
    def unmatched_deliveries(self) -> int:
        """Deliveries that found no injection stamp to pair with."""
        return self._unmatched.value

    def prune_in_flight(self, older_than_cycle: int) -> int:
        """Drop stamps injected before *older_than_cycle*; returns count.

        Packets that will never be delivered (their target detached, the
        payload lost to reconfiguration) would otherwise pin their
        injection stamps forever.  Stress harnesses call this
        periodically with a horizon well past the worst-case latency.
        """
        dropped = 0
        for key in list(self._in_flight):
            stamps = self._in_flight[key]
            kept = [
                s for s in stamps if s is None or s >= older_than_cycle
            ]
            dropped += len(stamps) - len(kept)
            if kept:
                self._in_flight[key] = kept
            else:
                del self._in_flight[key]
        if dropped:
            self._pruned.inc(dropped)
        return dropped

    # -- aggregates ---------------------------------------------------------

    @property
    def packets_injected(self) -> int:
        return self._packets_injected.value

    @property
    def packets_delivered(self) -> int:
        return self._packets_delivered.value

    @property
    def delivered_flits(self) -> int:
        return self._delivered_flits.value

    @property
    def average_latency(self) -> float:
        """Mean injection-to-delivery latency in clock cycles."""
        return self._latency.mean

    @property
    def max_latency(self) -> int:
        return int(self._latency.max)

    def latency_summary(self) -> Dict[str, float]:
        """count/mean/min/max/p50/p90/p99 of the latency distribution."""
        return self._latency.summary()

    def router_flits_sent(self, router: Address) -> int:
        """Total flits a router pushed out across all its ports."""
        return sum(
            count for (addr, _), count in self.flits_sent.items() if addr == router
        )

    def link_load(self, router: Address, port: int, cycles: int) -> float:
        """Utilisation of one output link in [0, 1] (1.0 = the 2-cycle
        handshake bound: one flit every two cycles)."""
        if cycles <= 0:
            return 0.0
        return self.flits_sent[(router, port)] * 2 / cycles

    def utilisation_grid(
        self, width: int, height: int, cycles: int, ports: int = 5
    ):
        """Per-router total output utilisation, as a [y][x] grid.

        *ports* is the per-router port count (5 for mesh/torus; pass
        ``topology.router_ports`` for concentrated fabrics)."""
        grid = []
        for y in range(height):
            row = []
            for x in range(width):
                total = sum(
                    self.link_load((x, y), port, cycles)
                    for port in range(ports)
                )
                row.append(total)
            grid.append(row)
        return grid

    def heatmap(
        self, width: int, height: int, cycles: int, ports: int = 5
    ) -> str:
        """ASCII traffic heatmap of the fabric (top row = highest y)."""
        grid = self.utilisation_grid(width, height, cycles, ports=ports)
        peak = max((v for row in grid for v in row), default=0.0) or 1.0
        ramp = " .:-=+*#%@"
        lines = []
        for y in reversed(range(height)):
            cells = []
            for x in range(width):
                level = int(grid[y][x] / peak * (len(ramp) - 1))
                cells.append(ramp[level] * 3)
            lines.append(" ".join(cells))
        return "\n".join(lines)

"""Post-mortem trace analytics: critical paths, congestion, profiles, diffs.

This module turns a recorded :class:`~repro.telemetry.events.TelemetrySink`
(live, or reloaded from a ``--trace-jsonl`` file) into the answers the
paper's evaluation section asks of a run:

**Per-packet critical paths.**  Every delivered packet's
injection→hop→delivery chain is reconstructed offline and its latency is
decomposed, per hop, into four components measured between consecutive
timestamp boundaries::

    s ......... hop start (injection stamp at hop 0; the header flit's
                FIFO-entry ``hdr`` instant downstream)
    a = f-(R-1) the cycle the control logic started serving the request
    f ......... first routing decision (``route`` or first ``route_blocked``)
    o ......... connection opened (the successful ``route``)
    end ....... next hop's start, or the delivery cycle on the last hop

    queueing      = a - s     (buffer + arbitration wait)
    routing       = f - a     (the R-1 cycle routing service, paper's Ri)
    blocked       = o - f     (output port held by another wormhole)
    serialization = end - o   (handshake transfer to the next stage; the
                               last hop absorbs the pipelined payload drain)

Because the components are differences of *consecutive* boundaries on one
timeline, their sum telescopes to ``delivered - injected`` exactly — the
decomposition is cycle-exact by construction, never approximated.

**Reconstruction without packet ids on the wire.**  Hermes flits carry no
identity, so the analyzer exploits three invariants of the model instead:
XY routing is deterministic (the hop sequence follows from source and
target alone), each input port serves packets strictly FIFO, and a link
is owned by one wormhole at a time (packets cross it in connection-open
order).  Seeding each router's LOCAL queue with its NI's injection order
and replaying ``hop`` spans in ascending open order therefore assigns
every span to the right packet positionally.

**Congestion attribution.**  A hop's blocked window ``[f, o)`` is matched
against the ``hop`` spans that occupied the contested output link during
that window; the overlap is charged to the occupying flow, yielding a
victim×blocker contention matrix and a ranked hotspot report.

**R8 profiles.**  ``pcsample`` events (per-``(call stack, pc)`` cycle
counts flushed by :meth:`~repro.r8.cpu.R8Cpu.flush_pc_samples`) are
resolved against the program's symbol table (``symbols`` events stashed
by the host loader) into function reports, folded stacks for
``flamegraph.pl``/Speedscope, and annotated disassembly listings.

**Diffing.**  :meth:`TraceAnalysis.metrics` flattens an analysis into
per-flow, per-link and per-function numbers; :func:`diff_traces` zero-fills
two of them over the union of names and hands them to the platform's one
comparator, :func:`~repro.telemetry.trend.diff_metrics`.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..noc.routing import OPPOSITE, PORT_DELTA, Port
from ..noc.topology import from_descriptor, port_index
from .events import TelemetrySink
from .trend import MetricDiff, diff_metrics

#: schema tag carried by every exported analysis document
SCHEMA = "multinoc-analysis/1"

_COMPONENTS = ("queueing", "routing", "blocked", "serialization")


def _parse_addr(text: str) -> Tuple[int, int]:
    x, y = text.split(",")
    return int(x), int(y)


@dataclass
class HopBreakdown:
    """One router traversal of one packet, with its latency split."""

    router: str
    address: Tuple[int, int]
    in_port: str
    out_port: str
    start: int
    decision: int
    opened: int
    end: Optional[int] = None
    routing_cycles: int = 1
    #: (blocker flow, cycles) pairs covering this hop's blocked window
    blocked_by: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def arb_start(self) -> int:
        return self.decision - (self.routing_cycles - 1)

    @property
    def queueing(self) -> int:
        return self.arb_start - self.start

    @property
    def routing(self) -> int:
        return self.decision - self.arb_start

    @property
    def blocked(self) -> int:
        return self.opened - self.decision

    @property
    def serialization(self) -> Optional[int]:
        return None if self.end is None else self.end - self.opened

    def components(self) -> Dict[str, int]:
        return {
            "queueing": self.queueing,
            "routing": self.routing,
            "blocked": self.blocked,
            "serialization": self.serialization or 0,
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "router": self.router,
            "in": self.in_port,
            "out": self.out_port,
            "start": self.start,
            "end": self.end,
            **self.components(),
            "blocked_by": [list(b) for b in self.blocked_by],
        }


@dataclass
class PacketTrace:
    """A reconstructed packet lifetime: the critical path."""

    flow: str
    seq: int
    source: Tuple[int, int]
    target: Tuple[int, int]
    injected: int
    flits: int
    queued: Optional[int] = None
    delivered: Optional[int] = None
    hops: List[HopBreakdown] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.delivered is not None

    @property
    def latency(self) -> Optional[int]:
        if self.delivered is None:
            return None
        return self.delivered - self.injected

    @property
    def packet_id(self) -> str:
        return f"{self.flow}#{self.seq}"

    def decomposition(self) -> Dict[str, int]:
        """Component totals across all hops; sums to :attr:`latency`."""
        totals = dict.fromkeys(_COMPONENTS, 0)
        for hop in self.hops:
            for name, value in hop.components().items():
                totals[name] += value
        return totals

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.packet_id,
            "flow": self.flow,
            "seq": self.seq,
            "injected": self.injected,
            "delivered": self.delivered,
            "latency": self.latency,
            "flits": self.flits,
            "decomposition": self.decomposition(),
            "hops": [hop.as_dict() for hop in self.hops],
        }


@dataclass
class LinkStats:
    """Occupancy/contention aggregate of one router output port."""

    router: str
    port: str
    busy_cycles: int = 0
    packets: int = 0
    blocked_cycles: int = 0

    @property
    def name(self) -> str:
        return f"{self.router}>{self.port}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "link": self.name,
            "busy_cycles": self.busy_cycles,
            "packets": self.packets,
            "blocked_cycles": self.blocked_cycles,
        }


class SymbolTable:
    """Address-sorted symbol lookup (``name -> address`` from the loader)."""

    def __init__(self, symbols: Optional[Dict[str, int]] = None):
        self.symbols: Dict[str, int] = dict(symbols or {})
        pairs = sorted((addr, name) for name, addr in self.symbols.items())
        self._addrs = [addr for addr, _ in pairs]
        self._names = [name for _, name in pairs]

    def resolve(self, pc: int) -> str:
        """Nearest symbol at or below *pc*; hex fallback when none."""
        i = bisect.bisect_right(self._addrs, pc) - 1
        if i < 0:
            return f"0x{pc:04x}"
        return self._names[i]

    def __bool__(self) -> bool:
        return bool(self.symbols)


@dataclass
class CpuProfile:
    """PC-sampling profile of one R8 core."""

    track: str
    symtab: SymbolTable
    #: ``(call-site pc tuple, pc) -> cycles``
    samples: Dict[Tuple[Tuple[int, ...], int], int] = field(
        default_factory=dict
    )

    @property
    def total_cycles(self) -> int:
        return sum(self.samples.values())

    def functions(self) -> Dict[str, int]:
        """Self cycles per resolved leaf function, descending."""
        out: Dict[str, int] = {}
        for (_stack, pc), cycles in self.samples.items():
            name = self.symtab.resolve(pc)
            out[name] = out.get(name, 0) + cycles
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def by_pc(self) -> Dict[int, int]:
        """Self cycles per program counter (for annotated listings)."""
        out: Dict[int, int] = {}
        for (_stack, pc), cycles in self.samples.items():
            out[pc] = out.get(pc, 0) + cycles
        return out

    def folded_stacks(self, root: Optional[str] = None) -> List[str]:
        """``frame;frame;leaf count`` lines — the flamegraph.pl input
        format, which Speedscope also imports directly."""
        root = root if root is not None else self.track
        folded: Dict[str, int] = {}
        for (stack, pc), cycles in self.samples.items():
            frames = [root] if root else []
            frames += [self.symtab.resolve(site) for site in stack]
            frames.append(self.symtab.resolve(pc))
            key = ";".join(frames)
            folded[key] = folded.get(key, 0) + cycles
        return [f"{key} {n}" for key, n in sorted(folded.items())]

    def annotate(self, obj) -> List[str]:
        """Disassembly of *obj* with per-PC cycle counts in the margin."""
        from ..r8.disassembler import disassemble

        per_pc = self.by_pc()
        total = self.total_cycles or 1
        lines: List[str] = []
        for origin, words in obj.segments:
            for offset, line in enumerate(disassemble(words, base=origin)):
                pc = origin + offset
                cycles = per_pc.get(pc, 0)
                if cycles:
                    margin = f"{cycles:>8} {100.0 * cycles / total:5.1f}%"
                else:
                    margin = " " * 15
                lines.append(f"{margin}  {line}")
        return lines

    def as_dict(self) -> Dict[str, Any]:
        return {
            "track": self.track,
            "total_cycles": self.total_cycles,
            "functions": self.functions(),
        }


@dataclass
class TraceAnalysis:
    """Everything :func:`analyze_trace` derived from one trace."""

    packets: List[PacketTrace] = field(default_factory=list)
    links: Dict[str, LinkStats] = field(default_factory=dict)
    #: (victim flow, blocker flow) -> blocked cycles attributed
    contention: Dict[Tuple[str, str], int] = field(default_factory=dict)
    profiles: Dict[str, CpuProfile] = field(default_factory=dict)
    unresolved_hops: int = 0

    # -- aggregates --------------------------------------------------------

    def delivered(self) -> List[PacketTrace]:
        return [p for p in self.packets if p.complete]

    def flows(self) -> Dict[str, Dict[str, Any]]:
        """Per-flow aggregate: packet count, latency stats, blocked total."""
        out: Dict[str, Dict[str, Any]] = {}
        for p in self.delivered():
            f = out.setdefault(
                p.flow,
                {"packets": 0, "latency_total": 0, "latency_max": 0,
                 "blocked": 0, "queueing": 0},
            )
            f["packets"] += 1
            f["latency_total"] += p.latency
            f["latency_max"] = max(f["latency_max"], p.latency)
            d = p.decomposition()
            f["blocked"] += d["blocked"]
            f["queueing"] += d["queueing"]
        for f in out.values():
            f["latency_mean"] = f["latency_total"] / f["packets"]
        return out

    def hotspots(self, top: int = 5) -> List[LinkStats]:
        """Links ranked by contention (blocked, then occupancy)."""
        ranked = sorted(
            self.links.values(),
            key=lambda l: (-l.blocked_cycles, -l.busy_cycles, l.name),
        )
        return ranked[:top]

    def contention_matrix(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for (victim, blocker), cycles in sorted(self.contention.items()):
            out.setdefault(victim, {})[blocker] = cycles
        return out

    def metrics(self) -> Dict[str, float]:
        """Flat ``{name: value}`` view that :func:`diff_traces` compares:
        ``flow <f> latency_mean|latency_max|blocked``,
        ``link <l> blocked_cycles`` and ``cpu <track>:<func> cycles``."""
        out: Dict[str, float] = {}
        for flow, f in self.flows().items():
            for metric in ("latency_mean", "latency_max", "blocked"):
                out[f"flow {flow} {metric}"] = f[metric]
        for name, link in self.links.items():
            out[f"link {name} blocked_cycles"] = link.blocked_cycles
        for track, profile in self.profiles.items():
            for func, cycles in profile.functions().items():
                out[f"cpu {track}:{func} cycles"] = cycles
        return out

    def folded_stacks(self) -> List[str]:
        """Folded stacks of every profiled core, one merged listing."""
        lines: List[str] = []
        for track in sorted(self.profiles):
            lines.extend(self.profiles[track].folded_stacks())
        return lines

    # -- rendering ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "packets": [p.as_dict() for p in self.packets],
            "flows": self.flows(),
            "links": {
                name: link.as_dict() for name, link in sorted(self.links.items())
            },
            "contention": {
                victim: blockers
                for victim, blockers in self.contention_matrix().items()
            },
            "profiles": {
                track: prof.as_dict()
                for track, prof in sorted(self.profiles.items())
            },
            "unresolved_hops": self.unresolved_hops,
        }

    def report(self, top: int = 5) -> str:
        lines: List[str] = []
        done = self.delivered()
        lines.append(
            f"packets: {len(done)} delivered, "
            f"{len(self.packets) - len(done)} in flight"
        )
        if done:
            worst = sorted(done, key=lambda p: -(p.latency or 0))[:top]
            lines.append(f"slowest packets (top {len(worst)}):")
            for p in worst:
                d = p.decomposition()
                split = " ".join(f"{k}={d[k]}" for k in _COMPONENTS)
                lines.append(
                    f"  {p.packet_id:<14} {p.latency:>6} cycles "
                    f"({len(p.hops)} hops)  {split}"
                )
        hot = [l for l in self.hotspots(top) if l.busy_cycles]
        if hot:
            lines.append(f"hotspot links (top {len(hot)}):")
            for link in hot:
                lines.append(
                    f"  {link.name:<20} busy {link.busy_cycles:>6}  "
                    f"blocked {link.blocked_cycles:>6}  "
                    f"packets {link.packets}"
                )
        matrix = self.contention_matrix()
        if matrix:
            lines.append("contention (victim <- blocker):")
            for victim, blockers in matrix.items():
                for blocker, cycles in sorted(
                    blockers.items(), key=lambda kv: -kv[1]
                ):
                    lines.append(
                        f"  {victim:<12} <- {blocker:<12} {cycles} cycles"
                    )
        for track in sorted(self.profiles):
            prof = self.profiles[track]
            if not prof.samples:
                continue
            lines.append(
                f"cpu profile {track} ({prof.total_cycles} cycles):"
            )
            total = prof.total_cycles or 1
            for name, cycles in list(prof.functions().items())[:top]:
                lines.append(
                    f"  {name:<24} {cycles:>8}  {100.0 * cycles / total:5.1f}%"
                )
        if self.unresolved_hops:
            lines.append(
                f"warning: {self.unresolved_hops} hop span(s) could not be "
                "attributed (partial trace?)"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


class _RouterInfo:
    __slots__ = ("track", "address", "routing_cycles")

    def __init__(self, track: str, address: Tuple[int, int], routing_cycles: int):
        self.track = track
        self.address = address
        self.routing_cycles = routing_cycles


def analyze_trace(sink: TelemetrySink) -> TraceAnalysis:
    """Run the full post-mortem analysis over *sink*'s events."""
    routers: Dict[str, _RouterInfo] = {}
    by_addr: Dict[Tuple[int, int], _RouterInfo] = {}
    injects: Dict[str, List] = {}  # NI track -> inject events in order
    deliveries: Dict[Tuple[int, int], deque] = {}  # dest addr -> delivered ts
    hdrs: Dict[Tuple[str, str], deque] = {}  # (router, in port) -> hdr ts
    decisions: Dict[Tuple[str, str], deque] = {}  # (router, in port) -> events
    hop_spans: List[Tuple[int, str, str, str, int]] = []
    samples: Dict[str, Dict] = {}
    symtabs: Dict[str, Dict[str, int]] = {}
    topology = None  # non-mesh traces carry a fabric descriptor

    for event in sink.events:
        name, args = event.name, event.args or {}
        if event.ph == "i":
            if name == "router_config":
                info = _RouterInfo(
                    event.track,
                    (args["x"], args["y"]),
                    args.get("routing_cycles", 1),
                )
                routers[event.track] = info
                by_addr[info.address] = info
            elif name == "topology":
                try:
                    topology = from_descriptor(args)
                except Exception:
                    topology = None  # unknown plugin; fall back to XY replay
            elif name == "hdr":
                hdrs.setdefault((event.track, args["port"]), deque()).append(
                    event.ts
                )
            elif name in ("route", "route_blocked"):
                decisions.setdefault(
                    (event.track, args.get("port")), deque()
                ).append((name, event.ts, args.get("out")))
            elif name == "deliver" and "at" in args:
                deliveries.setdefault(
                    _parse_addr(args["at"]), deque()
                ).append(event.ts)
            elif name == "pcsample":
                bucket = samples.setdefault(event.track, {})
                key = (tuple(args.get("stack", ())), args["pc"])
                bucket[key] = bucket.get(key, 0) + args["cycles"]
            elif name == "symbols":
                symtabs.setdefault(event.track, {}).update(
                    args.get("symbols", {})
                )
        elif event.ph == "X":
            if name == "inject" and "flow" in args:
                injects.setdefault(event.track, []).append(event)
            elif name == "packet" and "at" in args:
                deliveries.setdefault(
                    _parse_addr(args["at"]), deque()
                ).append(event.ts + (event.dur or 0))
            elif name.startswith("hop>"):
                hop_spans.append(
                    (
                        event.ts,
                        event.track,
                        args.get("in_port", "LOCAL"),
                        name[len("hop>"):],
                        event.dur or 0,
                    )
                )

    analysis = TraceAnalysis()

    # Seed each router's LOCAL queue with its NI's injection order.
    pending: Dict[Tuple[str, str], deque] = {}
    for track in sorted(injects):
        for event in injects[track]:
            args = event.args
            src = _parse_addr(args["src"])
            packet = PacketTrace(
                flow=args["flow"],
                seq=args.get("seq", 0),
                source=src,
                target=_parse_addr(args["target"]),
                injected=event.ts,
                flits=args.get("flits", 0),
                queued=args.get("queued"),
            )
            analysis.packets.append(packet)
            router_addr, in_label = src, Port.LOCAL.name
            if topology is not None:
                router_addr = topology.node_router(src)
                in_label = topology.port_name(topology.local_port(src))
            info = by_addr.get(router_addr)
            if info is None:
                continue  # router not in trace; leave the packet unresolved
            pending.setdefault((info.track, in_label), deque()).append(
                packet
            )

    # Replay hop spans in connection-open order: upstream hops strictly
    # precede their downstream continuation, so each pop sees its packet.
    occupancy: Dict[Tuple[str, str], List[Tuple[int, int, PacketTrace]]] = {}
    for open_ts, track, in_port, out_port, dur in sorted(hop_spans):
        info = routers.get(track)
        queue = pending.get((track, in_port))
        if info is None or not queue:
            analysis.unresolved_hops += 1
            continue
        packet = queue.popleft()
        hop_index = len(packet.hops)
        # consume this packet's hdr stamp to keep the port queue aligned;
        # hop 0 uses the injection stamp as its start boundary instead.
        hdr_queue = hdrs.get((track, in_port))
        hdr_ts = hdr_queue.popleft() if hdr_queue else None
        start = packet.injected if hop_index == 0 else hdr_ts
        if start is None:
            start = open_ts
        # routing decisions for this packet: leading blocked, then success
        decision_ts = open_ts
        dq = decisions.get((track, in_port))
        blocked_first: Optional[int] = None
        while dq:
            kind, ts, _out = dq.popleft()
            if kind == "route":
                decision_ts = ts
                break
            if blocked_first is None:
                blocked_first = ts
        hop = HopBreakdown(
            router=track,
            address=info.address,
            in_port=in_port,
            out_port=out_port,
            start=start,
            decision=(
                blocked_first if blocked_first is not None else decision_ts
            ),
            opened=decision_ts,
            routing_cycles=info.routing_cycles,
        )
        packet.hops.append(hop)
        occupancy.setdefault((track, out_port), []).append(
            (open_ts, open_ts + dur, packet)
        )
        link = analysis.links.setdefault(
            f"{track}>{out_port}", LinkStats(track, out_port)
        )
        link.busy_cycles += dur
        link.packets += 1
        if out_port.startswith("LOCAL"):
            node = info.address
            if topology is not None:
                node = topology.port_node(info.address, port_index(out_port))
            arrivals = deliveries.get(node)
            if arrivals:
                packet.delivered = arrivals.popleft()
                hop.end = packet.delivered
        else:
            if topology is not None:
                # replay the plugin's link graph (wrap links included)
                nb_addr = topology.neighbour(info.address, port_index(out_port))
            else:
                dx, dy = PORT_DELTA[Port[out_port]]
                nb_addr = (info.address[0] + dx, info.address[1] + dy)
            neighbour = by_addr.get(nb_addr)
            if neighbour is not None:
                pending.setdefault(
                    (neighbour.track, OPPOSITE[Port[out_port]].name), deque()
                ).append(packet)

    # Close intermediate hop boundaries: hop i ends where hop i+1 starts.
    for packet in analysis.packets:
        for i in range(len(packet.hops) - 1):
            packet.hops[i].end = packet.hops[i + 1].start

    # Congestion attribution: overlap each blocked window with the hops
    # that occupied the contested link during it.
    for spans in occupancy.values():
        spans.sort(key=lambda s: s[0])
    for packet in analysis.packets:
        for hop in packet.hops:
            blocked = hop.blocked
            if blocked <= 0:
                continue
            link = analysis.links.get(f"{hop.router}>{hop.out_port}")
            if link is not None:
                link.blocked_cycles += blocked
            window = (hop.decision, hop.opened)
            for open_ts, close_ts, blocker in occupancy.get(
                (hop.router, hop.out_port), ()
            ):
                if blocker is packet:
                    continue
                overlap = min(window[1], close_ts) - max(window[0], open_ts)
                if overlap <= 0:
                    continue
                hop.blocked_by.append((blocker.flow, overlap))
                key = (packet.flow, blocker.flow)
                analysis.contention[key] = (
                    analysis.contention.get(key, 0) + overlap
                )

    # CPU profiles.
    for track in sorted(set(samples) | set(symtabs)):
        analysis.profiles[track] = CpuProfile(
            track=track,
            symtab=SymbolTable(symtabs.get(track)),
            samples=samples.get(track, {}),
        )

    return analysis


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------


def diff_traces(
    current: TraceAnalysis,
    baseline: TraceAnalysis,
    threshold_pct: float = 10.0,
    threshold_cycles: float = 5.0,
) -> MetricDiff:
    """Compare *current* against *baseline* metric by metric.

    A flow, link or function present on one side only counts as zero on
    the other, so new and vanished traffic is compared too.  A metric
    regresses when it grew by more than *threshold_cycles* **and** by
    more than *threshold_pct* percent
    (:func:`~repro.telemetry.trend.classify_change`).
    """
    cur, base = current.metrics(), baseline.metrics()
    names = cur.keys() | base.keys()
    return diff_metrics(
        {name: cur.get(name, 0) for name in names},
        {name: base.get(name, 0) for name in names},
        threshold_pct=threshold_pct,
        threshold_abs=threshold_cycles,
    )

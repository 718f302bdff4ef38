"""Topology plugins — the fabric shape as a first-class parameter.

The paper's scalability argument (Sections 1 and 5) is about *NoCs*,
not about the particular 2x2 Hermes mesh of the prototype; the related
work (Berejuck's multicast survey, Habib et al.'s communication
architecture study) shows topology and routing choice are the
first-order levers on saturation latency and area fraction.  This
module lifts the mesh/XY assumption out of the builder, the router,
the analysis layers and the area model into a small plugin registry:

* :class:`MeshTopology`   — the paper's WxH mesh with XY routing,
* :class:`TorusTopology`  — WxH with wrap links and dateline routing,
* :class:`CMeshTopology`  — concentrated mesh, C nodes per router.

Every plugin exposes the same contract:

* a **node/link graph**: :meth:`~Topology.nodes` (where IPs attach),
  :meth:`~Topology.routers`, :meth:`~Topology.builder_links` (the
  deterministic wiring order) and :meth:`~Topology.neighbour`,
* a **coordinate/address codec**: :meth:`~Topology.encode` /
  :meth:`~Topology.decode`, delegating to the 4-bit header nibbles of
  :mod:`repro.noc.flit` (which caps the node grid at 16x16),
* a **deterministic, deadlock-free routing function**:
  :meth:`~Topology.route`, plus the matching
  :meth:`~Topology.legal_turn` invariant used by the health monitor.

Deadlock freedom per plugin:

* *mesh* — dimension-ordered XY: every path corrects X fully before Y,
  so the channel dependency graph has no cycle (the classical
  Glass/Ni turn-model argument; Y->X turns never occur).
* *torus* — XY with a *dateline* restriction instead of virtual
  channels: in each ring the shorter direction is preferred, but a hop
  that crosses the wrap link is taken only when the wrap is the *last*
  hop of that dimension (an eastward wrap requires the target column
  to be 0; a westward wrap requires column W-1).  The wrap channel
  therefore never feeds another channel of the same unidirectional
  ring, breaking the ring's dependency cycle at the dateline; with
  X-before-Y ordering on top, the whole dependency graph is acyclic.
  Rings shorter than three routers are built without wrap links (they
  would duplicate the existing bidirectional pair).
* *cmesh* — XY over the router grid plus a terminal hop into one of C
  local ports; local ports only sink traffic, so the mesh argument
  carries over unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Type, Union

from .flit import decode_address, encode_address
from .routing import ALL_PORTS, OPPOSITE, PORT_DELTA, Port

Address = Tuple[int, int]


class TopologyError(ValueError):
    """A topology spec that cannot be built (raised at config parse time)."""


def port_label(port: int) -> str:
    """Stable display name for a port index of any topology.

    Ports 0..4 keep the Hermes names (EAST/WEST/NORTH/SOUTH/LOCAL);
    extra concentrated-mesh local ports are LOCAL1, LOCAL2, ...
    """
    if port < len(ALL_PORTS):
        return Port(port).name
    return f"LOCAL{port - Port.LOCAL}"


def port_index(label: str) -> int:
    """Inverse of :func:`port_label`."""
    if label.startswith("LOCAL") and label != "LOCAL":
        return Port.LOCAL + int(label[len("LOCAL"):])
    return Port[label].value


def is_local_port(port: int) -> bool:
    return port >= Port.LOCAL


class Topology:
    """Contract shared by every fabric plugin.

    ``width``/``height`` describe the *router* grid; :meth:`nodes`
    (which may be a larger grid for concentrated topologies) describes
    where network interfaces attach.  All iteration orders are
    deterministic so that identical specs build identical hardware.
    """

    kind: str = "?"

    width: int
    height: int
    router_ports: int

    # -- identity ----------------------------------------------------

    @property
    def name(self) -> str:
        """Component-name prefix, e.g. ``mesh2x2`` / ``torus4x4``."""
        raise NotImplementedError

    @property
    def spec(self) -> str:
        """Canonical parseable spec, e.g. ``mesh:2x2``."""
        raise NotImplementedError

    def descriptor(self) -> Dict[str, int]:
        """JSON-safe description (checkpoints, live frames, traces)."""
        raise NotImplementedError

    #: lazily computed by :meth:`label`
    _wide_labels: Optional[bool] = None

    def label(self, addr: Address) -> str:
        """Collision-free coordinate label for component/wire names.

        Grids whose coordinates are all single digits keep the compact
        ``xy`` form (``router21``); wider fabrics separate the
        coordinates (``router11_5``) because concatenation would alias
        e.g. ``(1, 15)`` and ``(11, 5)`` into the same name.
        """
        if self._wide_labels is None:
            self._wide_labels = any(
                c > 9 for node in self.nodes() for c in node
            )
        x, y = addr
        return f"{x}_{y}" if self._wide_labels else f"{x}{y}"

    # -- node/link graph ---------------------------------------------

    def routers(self) -> List[Address]:
        return [(x, y) for y in range(self.height) for x in range(self.width)]

    def nodes(self) -> List[Address]:
        """Attachment points for IPs, raster order."""
        raise NotImplementedError

    def node_router(self, node: Address) -> Address:
        """Router serving *node*."""
        raise NotImplementedError

    def local_port(self, node: Address) -> int:
        """Port index on ``node_router(node)`` where *node* attaches."""
        raise NotImplementedError

    def port_node(self, router: Address, port: int) -> Address:
        """Node attached at a local *port* of *router*."""
        raise NotImplementedError

    def neighbour(self, addr: Address, port: int) -> Optional[Address]:
        """Router reached from *addr* through a direction *port*."""
        raise NotImplementedError

    def builder_links(self) -> Iterator[Tuple[Address, int, Address]]:
        """Deterministic ``(router, port, neighbour)`` wiring order.

        One entry per bidirectional link pair; the builder creates the
        forward and reverse channels together.
        """
        for addr in self.routers():
            for port in (Port.EAST, Port.NORTH):
                nb = self.neighbour(addr, port)
                if nb is not None:
                    yield addr, port, nb

    def is_wrap_link(self, addr: Address, port: int) -> bool:
        """True when the link out of *addr* via *port* crosses a wrap."""
        return False

    def port_counts(self) -> List[int]:
        """Instantiated ports per router, raster order (area model)."""
        counts = []
        n_local = self.router_ports - Port.LOCAL
        for addr in self.routers():
            dirs = sum(
                1
                for port in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)
                if self.neighbour(addr, port) is not None
            )
            counts.append(dirs + n_local)
        return counts

    # -- codec --------------------------------------------------------

    def encode(self, node: Address) -> int:
        return encode_address(*node)

    def decode(self, flit: int) -> Address:
        return decode_address(flit)

    # -- routing ------------------------------------------------------

    def route(self, current: Address, target: Address) -> int:
        """Output port at router *current* for a packet to node *target*.

        Deterministic and deadlock-free (see the module docstring for
        the per-plugin argument).
        """
        raise NotImplementedError

    def route_path(self, source: Address, target: Address) -> List[Address]:
        """Router path from ``node_router(source)`` to
        ``node_router(target)``, both endpoints included."""
        current = self.node_router(source)
        path = [current]
        guard = 4 * (self.width + self.height) * max(1, self.router_ports)
        for _ in range(guard):
            port = self.route(current, target)
            if is_local_port(port):
                return path
            current = self.neighbour(current, port)
            if current is None:  # pragma: no cover - routing bug guard
                raise TopologyError(
                    f"{self.spec}: route from {source} to {target} "
                    f"fell off the fabric at {path[-1]}"
                )
            path.append(current)
        raise TopologyError(  # pragma: no cover - routing bug guard
            f"{self.spec}: route from {source} to {target} does not converge"
        )

    def legal_turn(self, in_port: int, out_port: int) -> bool:
        """Turn-model invariant matching :meth:`route` (health checks).

        Dimension-ordered: packets entering on a Y port may only
        continue in Y or sink locally; X inputs may not U-turn.
        """
        if is_local_port(in_port) or is_local_port(out_port):
            return True
        ip, op = Port(in_port), Port(out_port)
        if ip in (Port.EAST, Port.WEST):
            return op is not ip
        return op is OPPOSITE[ip]

    # -- helpers ------------------------------------------------------

    def port_name(self, port: int) -> str:
        return port_label(port)

    def _check_node_grid(self, nw: int, nh: int) -> None:
        if nw < 1 or nh < 1:
            raise TopologyError(
                f"{self.spec}: dimensions must be at least 1x1"
            )
        if nw > 16 or nh > 16:
            raise TopologyError(
                f"{self.spec}: node grid {nw}x{nh} does not fit the "
                f"4-bit header nibbles — flit headers pack the target "
                f"as (x << 4) | y, so node coordinates must stay below "
                f"16 in each dimension"
            )


class MeshTopology(Topology):
    """The paper's WxH Hermes mesh with dimension-ordered XY routing."""

    kind = "mesh"

    def __init__(self, width: int, height: int):
        self.width = int(width)
        self.height = int(height)
        self.router_ports = len(ALL_PORTS)
        self._check_node_grid(self.width, self.height)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.width}x{self.height}"

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.width}x{self.height}"

    def descriptor(self) -> Dict[str, int]:
        return {"topology": self.kind, "width": self.width, "height": self.height}

    def nodes(self) -> List[Address]:
        return self.routers()

    def node_router(self, node: Address) -> Address:
        return node

    def local_port(self, node: Address) -> int:
        return Port.LOCAL

    def port_node(self, router: Address, port: int) -> Address:
        return router

    def neighbour(self, addr: Address, port: int) -> Optional[Address]:
        if is_local_port(port):
            return None
        dx, dy = PORT_DELTA[Port(port)]
        nx, ny = addr[0] + dx, addr[1] + dy
        if 0 <= nx < self.width and 0 <= ny < self.height:
            return (nx, ny)
        return None

    def route(self, current: Address, target: Address) -> int:
        """Deterministic XY routing (paper Section 2.1): correct X
        first, then Y, then deliver.  Dimension order makes it
        deadlock-free on a mesh."""
        cx, cy = current
        tx, ty = target
        if tx > cx:
            return Port.EAST
        if tx < cx:
            return Port.WEST
        if ty > cy:
            return Port.NORTH
        if ty < cy:
            return Port.SOUTH
        return Port.LOCAL


class TorusTopology(MeshTopology):
    """WxH torus: wrap links, XY dateline routing, no virtual channels.

    Each ring prefers the shorter way round, but a hop across the wrap
    link is only taken when it is the final hop of that dimension —
    otherwise the packet goes the long way through the interior.  That
    keeps every unidirectional ring's channel-dependency chain acyclic
    (the wrap channel never feeds the ring's first channel), so no
    virtual channels are needed.  Rings of length < 3 are built as
    plain mesh links (a wrap there would just duplicate the pair).
    """

    kind = "torus"

    def _wraps(self, size: int) -> bool:
        return size >= 3

    def neighbour(self, addr: Address, port: int) -> Optional[Address]:
        if is_local_port(port):
            return None
        dx, dy = PORT_DELTA[Port(port)]
        nx, ny = addr[0] + dx, addr[1] + dy
        if dx and self._wraps(self.width):
            nx %= self.width
        if dy and self._wraps(self.height):
            ny %= self.height
        if 0 <= nx < self.width and 0 <= ny < self.height:
            return (nx, ny)
        return None

    def is_wrap_link(self, addr: Address, port: int) -> bool:
        if is_local_port(port):
            return False
        dx, dy = PORT_DELTA[Port(port)]
        nx, ny = addr[0] + dx, addr[1] + dy
        return not (0 <= nx < self.width and 0 <= ny < self.height)

    def route(self, current: Address, target: Address) -> int:
        cx, cy = current
        tx, ty = target
        if tx != cx:
            return self._ring_step(cx, tx, self.width, Port.EAST, Port.WEST)
        if ty != cy:
            return self._ring_step(cy, ty, self.height, Port.NORTH, Port.SOUTH)
        return Port.LOCAL

    def _ring_step(self, c: int, t: int, size: int, plus: Port, minus: Port) -> int:
        if not self._wraps(size):
            return plus if t > c else minus
        fwd = (t - c) % size  # hops going + (east / north)
        bwd = (c - t) % size
        # A + move wraps exactly when t < c; the dateline rule allows a
        # wrapping move only when the wrap is the last hop (t sits just
        # past the dateline for that direction).
        plus_ok = t > c or t == 0
        minus_ok = t < c or t == size - 1
        if fwd <= bwd:
            return plus if plus_ok else minus
        return minus if minus_ok else plus


class CMeshTopology(Topology):
    """Concentrated mesh: a WxH router grid with C nodes per router.

    Nodes form a (W*C)xH grid; node ``(nx, ny)`` attaches to router
    ``(nx // C, ny)`` at local port ``4 + nx % C``.  Routing is XY over
    the router grid followed by a terminal hop into the node's local
    port, so the mesh deadlock-freedom argument applies unchanged.
    """

    kind = "cmesh"

    def __init__(self, width: int, height: int, concentration: int = 2):
        self.width = int(width)
        self.height = int(height)
        self.concentration = int(concentration)
        if self.concentration < 1:
            raise TopologyError(f"{self.spec}: concentration must be >= 1")
        self.router_ports = Port.LOCAL + self.concentration
        self._check_node_grid(self.width * self.concentration, self.height)

    @property
    def name(self) -> str:
        return f"cmesh{self.width}x{self.height}x{self.concentration}"

    @property
    def spec(self) -> str:
        return f"cmesh:{self.width}x{self.height}x{self.concentration}"

    def descriptor(self) -> Dict[str, int]:
        return {
            "topology": self.kind,
            "width": self.width,
            "height": self.height,
            "concentration": self.concentration,
        }

    def nodes(self) -> List[Address]:
        return [
            (nx, ny)
            for ny in range(self.height)
            for nx in range(self.width * self.concentration)
        ]

    def node_router(self, node: Address) -> Address:
        return (node[0] // self.concentration, node[1])

    def local_port(self, node: Address) -> int:
        return Port.LOCAL + node[0] % self.concentration

    def port_node(self, router: Address, port: int) -> Address:
        slot = port - Port.LOCAL
        if not 0 <= slot < self.concentration:
            raise TopologyError(
                f"{self.spec}: port {port} of router {router} is not local"
            )
        return (router[0] * self.concentration + slot, router[1])

    def neighbour(self, addr: Address, port: int) -> Optional[Address]:
        if is_local_port(port):
            return None
        dx, dy = PORT_DELTA[Port(port)]
        nx, ny = addr[0] + dx, addr[1] + dy
        if 0 <= nx < self.width and 0 <= ny < self.height:
            return (nx, ny)
        return None

    def route(self, current: Address, target: Address) -> int:
        router = self.node_router(target)
        if router == current:
            return self.local_port(target)
        # XY over the router grid
        return MeshTopology.route(self, current, router)


#: Registry of topology plugins, keyed by spec kind.
TOPOLOGIES: Dict[str, Type[Topology]] = {}


def register_topology(kind: str, cls: Optional[Type[Topology]] = None):
    """Register a plugin class under *kind* (usable as a decorator)."""
    if cls is None:
        def _register(inner: Type[Topology]) -> Type[Topology]:
            TOPOLOGIES[kind] = inner
            return inner
        return _register
    TOPOLOGIES[kind] = cls
    return cls


register_topology("mesh", MeshTopology)
register_topology("torus", TorusTopology)
register_topology("cmesh", CMeshTopology)

TopologySpec = Union[str, Tuple[int, int], Topology]


def parse_topology(spec: TopologySpec) -> Topology:
    """Build a topology from a spec.

    Accepted forms: an existing :class:`Topology`, a ``(width, height)``
    tuple (a mesh), ``"WxH"`` (a mesh), or ``"kind:WxH"`` /
    ``"cmesh:WxHxC"`` for any registered kind.  Raises
    :class:`TopologyError` — a ``ValueError`` subclass — for unknown
    kinds or dimensions that break the 4-bit header nibble limit.
    """
    if isinstance(spec, Topology):
        return spec
    if isinstance(spec, (tuple, list)):
        if len(spec) != 2:
            raise TopologyError(f"topology tuple {spec!r} must be (width, height)")
        return MeshTopology(*spec)
    text = str(spec).strip().lower()
    kind, _, dims = text.partition(":")
    if not dims:
        kind, dims = "mesh", text
    cls = TOPOLOGIES.get(kind)
    if cls is None:
        known = ", ".join(sorted(TOPOLOGIES))
        raise TopologyError(f"unknown topology kind {kind!r} (known: {known})")
    parts = dims.split("x")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise TopologyError(
            f"bad topology spec {spec!r}: dimensions must look like "
            f"'4x4' (or '4x4x2' for cmesh)"
        ) from None
    try:
        return cls(*numbers)
    except TypeError:
        raise TopologyError(
            f"bad topology spec {spec!r}: wrong number of dimensions "
            f"for {kind!r}"
        ) from None


def from_descriptor(doc: Dict[str, int]) -> Topology:
    """Rebuild a topology from :meth:`Topology.descriptor` output."""
    kind = doc.get("topology", "mesh")
    cls = TOPOLOGIES.get(kind)
    if cls is None:
        known = ", ".join(sorted(TOPOLOGIES))
        raise TopologyError(f"unknown topology kind {kind!r} (known: {known})")
    args = [doc["width"], doc["height"]]
    if "concentration" in doc:
        args.append(doc["concentration"])
    return cls(*args)

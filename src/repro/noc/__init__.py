"""Cycle-accurate model of the Hermes network on chip.

The package mirrors the hardware structure described in the paper's
Section 2.1: wormhole packet switching, deterministic XY routing on a
mesh, round-robin arbitration, asynchronous handshake links (two cycles
per flit), and 2-flit circular-FIFO input buffers.
"""

from .arbiter import RoundRobinArbiter
from .bus import BusInterface, SharedBusNetwork
from .fifo import CircularFifo
from .flit import (
    FLIT_BITS,
    FLIT_MAX,
    MAX_PAYLOAD_FLITS,
    decode_address,
    encode_address,
    flits_to_words,
    join_word,
    split_word,
    words_to_flits,
)
from .mesh import Mesh
from .network import HermesNetwork
from .ni import NetworkInterface
from .packet import Packet
from .router import HermesRouter, RoutingError
from .routing import ALL_PORTS, OPPOSITE, PORT_DELTA, Port
from .stats import NetworkStats
from .topology import (
    TOPOLOGIES,
    CMeshTopology,
    MeshTopology,
    Topology,
    TopologyError,
    TorusTopology,
    from_descriptor,
    parse_topology,
    port_index,
    port_label,
    register_topology,
)
from . import services

__all__ = [
    "ALL_PORTS",
    "BusInterface",
    "SharedBusNetwork",
    "CircularFifo",
    "FLIT_BITS",
    "FLIT_MAX",
    "HermesNetwork",
    "HermesRouter",
    "MAX_PAYLOAD_FLITS",
    "Mesh",
    "NetworkInterface",
    "NetworkStats",
    "OPPOSITE",
    "PORT_DELTA",
    "Packet",
    "Port",
    "TOPOLOGIES",
    "Topology",
    "TopologyError",
    "MeshTopology",
    "TorusTopology",
    "CMeshTopology",
    "RoundRobinArbiter",
    "RoutingError",
    "decode_address",
    "encode_address",
    "flits_to_words",
    "join_word",
    "from_descriptor",
    "parse_topology",
    "port_index",
    "port_label",
    "register_topology",
    "services",
    "split_word",
    "words_to_flits",
]

"""Hermes router port naming and link geometry."""

from __future__ import annotations

from enum import IntEnum


class Port(IntEnum):
    """Hermes router ports (paper Figure 2)."""

    EAST = 0
    WEST = 1
    NORTH = 2
    SOUTH = 3
    LOCAL = 4


#: All ports, in arbitration scan order.
ALL_PORTS = tuple(Port)

#: Unit coordinate displacement of each non-local port.
PORT_DELTA = {
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
    Port.NORTH: (0, 1),
    Port.SOUTH: (0, -1),
}

#: The reverse direction of each non-local port (EAST output feeds the
#: neighbour's WEST input, and so on).
OPPOSITE = {
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
}

"""Analytical latency models for the Hermes NoC.

Two models live here:

* :func:`paper_latency` — the formula printed in the paper's Section 2.1::

      latency = (sum_i R_i + P) x 2

  with ``R_i`` the per-router routing time ("at least 7 clock cycles")
  and ``P`` the packet size in flits, the factor 2 coming from the
  2-cycle handshake.

* :func:`model_latency` — the exact closed form of *this* simulator,
  derived from the router micro-architecture and verified cycle-exact by
  the test suite::

      latency = (routing_cycles + 3) x n + 2 x P - 3

  Per hop a header pays the ``routing_cycles`` control occupancy plus
  three cycles of handshake/pipeline skew; payload then streams at two
  cycles per flit.  Valid for ``buffer_depth >= 2`` (the paper's
  configuration); single-flit buffers cannot overlap the handshake and
  run slower.

Both are linear in hop count and packet size with the identical payload
slope of 2 cycles/flit; they coincide when ``routing_cycles = 11`` (i.e.
``R_i = 7`` in the paper's x2 accounting).  The benchmark for experiment
E1 reports both against measurements.
"""

from __future__ import annotations

from typing import Tuple

from ..noc.topology import MeshTopology


def hops(source: Tuple[int, int], target: Tuple[int, int]) -> int:
    """Number of routers on the XY path, endpoints included (paper's n)."""
    mesh = MeshTopology(
        max(source[0], target[0]) + 1, max(source[1], target[1]) + 1
    )
    return len(mesh.route_path(source, target))


def paper_latency(n_routers: int, packet_flits: int, r_cycles: int = 7) -> int:
    """The paper's minimal latency formula, Section 2.1."""
    if n_routers < 1 or packet_flits < 2:
        raise ValueError("need at least one router and a header+size packet")
    return (n_routers * r_cycles + packet_flits) * 2


def model_latency(
    n_routers: int, packet_flits: int, routing_cycles: int = 7
) -> int:
    """Exact unloaded latency of this simulator's router pipeline."""
    if n_routers < 1 or packet_flits < 2:
        raise ValueError("need at least one router and a header+size packet")
    return (routing_cycles + 3) * n_routers + 2 * packet_flits - 3


def equivalent_routing_cycles(r_paper: int = 7) -> int:
    """routing_cycles value making the simulator match the paper formula
    asymptotically (same per-hop cost)."""
    return 2 * r_paper - 3

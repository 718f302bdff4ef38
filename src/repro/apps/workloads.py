"""Synthetic NoC traffic for network-only experiments.

Standard interconnect evaluation patterns (uniform random, transpose,
bit-complement, hotspot, nearest-neighbour) plus a cycle-timed traffic
source component that injects packets at a configured rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..noc.network import HermesNetwork
from ..noc.ni import NetworkInterface
from ..noc.packet import Packet
from ..sim import SLEEP, Component

Address = Tuple[int, int]


def uniform_random(
    source: Address, width: int, height: int, rng: random.Random
) -> Address:
    """Uniformly random destination, excluding the source."""
    while True:
        target = (rng.randrange(width), rng.randrange(height))
        if target != source:
            return target


def transpose(source: Address, width: int, height: int, rng) -> Address:
    """(x, y) -> (y, x); a classic adversarial pattern for XY routing."""
    x, y = source
    target = (y % width, x % height)
    return target if target != source else ((x + 1) % width, y)


def bit_complement(source: Address, width: int, height: int, rng) -> Address:
    """(x, y) -> (W-1-x, H-1-y): maximum-distance traffic."""
    x, y = source
    target = (width - 1 - x, height - 1 - y)
    return target if target != source else ((x + 1) % width, y)


def hotspot(hot: Address) -> Callable[[Address, int, int, random.Random], Address]:
    """Everyone sends to one node (the paper's serial IP is a natural
    hotspot: all printf/scanf/host traffic converges on router 00)."""

    def pick(source: Address, width: int, height: int, rng) -> Address:
        if source == hot:
            return uniform_random(source, width, height, rng)
        return hot

    return pick


def nearest_neighbour(source: Address, width: int, height: int, rng) -> Address:
    """Send to a random mesh neighbour (local traffic)."""
    x, y = source
    options = [
        (x + dx, y + dy)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if 0 <= x + dx < width and 0 <= y + dy < height
    ]
    return rng.choice(options)


PATTERNS = {
    "uniform": uniform_random,
    "transpose": transpose,
    "bit_complement": bit_complement,
    "neighbour": nearest_neighbour,
}


@dataclass
class TrafficConfig:
    """Open-loop injection parameters.

    ``rate`` is the per-node injection probability per cycle (flits are
    then payload_flits+2 each); the offered load per node in flits/cycle
    is roughly ``rate * (payload_flits + 2)``.
    """

    pattern: str = "uniform"
    rate: float = 0.02
    payload_flits: int = 8
    duration: int = 2000
    seed: int = 42
    hotspot_node: Optional[Address] = None


class TrafficSource(Component):
    """Injects randomly generated packets into one NI on a schedule.

    :attr:`done` turns true once every scheduled packet is injected.  It
    is a plain attribute, kept by every change of the schedule position,
    because run predicates test it for every source on every cycle.
    """

    def __init__(
        self,
        ni: NetworkInterface,
        width: int,
        height: int,
        config: TrafficConfig,
    ):
        super().__init__(f"traffic{ni.address[0]}{ni.address[1]}")
        self.ni = ni
        self.config = config
        if config.hotspot_node is not None:
            pick = hotspot(config.hotspot_node)
        else:
            pick = PATTERNS[config.pattern]
        x, y = ni.address
        rng = random.Random(config.seed * 1_000_003 + x * 131 + y)
        # Pre-draw the schedule so runs are reproducible regardless of
        # evaluation order.
        schedule: List[Tuple[int, Address]] = []
        for cycle in range(config.duration):
            if rng.random() < config.rate:
                schedule.append((cycle, pick(ni.address, width, height, rng)))
        self._index = 0
        self.schedule = schedule
        self.injected = 0

    @property
    def schedule(self) -> List[Tuple[int, Address]]:
        """``(cycle, target)`` injections in cycle order.  Assign a new
        list to replace it; :attr:`done` follows the assignment."""
        return self._schedule

    @schedule.setter
    def schedule(self, schedule: List[Tuple[int, Address]]) -> None:
        self._schedule = schedule
        self.done = self._index >= len(schedule)

    def eval(self, cycle: int) -> Optional[float]:
        """Inject what is due; a source is pure timed work, so between
        injections it sleeps until its next scheduled cycle."""
        schedule = self._schedule
        while (
            self._index < len(schedule) and schedule[self._index][0] <= cycle
        ):
            _, target = schedule[self._index]
            payload = [self._index & 0xFF] * self.config.payload_flits
            self.ni.send_packet(Packet(target=target, payload=payload))
            self._index += 1
            self.injected += 1
        self.done = self._index >= len(schedule)
        return SLEEP if self.done else schedule[self._index][0]

    def reset(self) -> None:
        super().reset()
        self._index = 0
        self.injected = 0
        self.done = not self._schedule

    def snapshot_state(self) -> dict:
        # the schedule itself is drawn again at construction
        return {"index": self._index, "injected": self.injected}

    def restore_state(self, state: dict) -> None:
        self._index = state["index"]
        self.injected = state["injected"]
        self.done = self._index >= len(self._schedule)


def drive_traffic(network, config: TrafficConfig) -> List[TrafficSource]:
    """Attach a traffic source to every NI of *network*.

    Works with any fabric exposing ``interfaces``/``add_child`` and a
    geometry (:class:`~repro.noc.network.HermesNetwork` or the shared-bus
    baseline :class:`~repro.noc.bus.SharedBusNetwork`).
    """
    geometry = getattr(network, "mesh", network)
    sources = []
    for ni in network.interfaces.values():
        source = TrafficSource(ni, geometry.width, geometry.height, config)
        network.add_child(source)
        sources.append(source)
    return sources

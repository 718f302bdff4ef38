"""Synchronous, cycle-accurate simulation kernel used by every hardware model.

The kernel is deliberately tiny: :class:`Wire` (registered signals
whose drives are seen from the next cycle on), :class:`Component` (a
clocked block with an ``eval`` protocol and an opt-in
quiescence/activity protocol) and
:class:`Simulator` (the quiescence-aware clock driver, with a strict
lock-step mode behind ``strict_lockstep=True``).  Everything in
:mod:`repro.noc`, :mod:`repro.r8`, :mod:`repro.memory`,
:mod:`repro.serial` and :mod:`repro.system` is built on these three
classes.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointEntry,
    CheckpointError,
    CheckpointRing,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from .component import SLEEP, Component, SnapshotError
from .kernel import SimulationTimeout, Simulator, stride_points
from .vcd import VcdWriter
from .wire import Wire

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointEntry",
    "CheckpointError",
    "CheckpointRing",
    "Component",
    "SLEEP",
    "SimulationTimeout",
    "Simulator",
    "SnapshotError",
    "VcdWriter",
    "Wire",
    "load_checkpoint",
    "restore_checkpoint",
    "save_checkpoint",
    "stride_points",
]

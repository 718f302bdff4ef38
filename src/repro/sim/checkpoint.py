"""Deterministic whole-system checkpoint/restore.

A checkpoint is a JSON document capturing everything the kernel and its
component tree need to resume bit-identically: every wire (both
phases), every component's registers (via the per-class
``snapshot_state`` overrides), and the scheduler's wake bookings.  The
same document restores under either kernel mode (strict lock-step or
idle fast-forward), which is what makes restore-and-replay a sound
implementation of reverse debugging: determinism turns "go back 150
cycles" into "restore the nearest earlier checkpoint and re-execute".

File format (schema ``multinoc-checkpoint/1``)::

    {
      "schema":   "multinoc-checkpoint/1",
      "cycle":    123456,
      "meta":     {...},         # caller-supplied context (config, note)
      "topology": {...},         # optional fabric descriptor (additive)
      "state":    {...}          # Simulator.snapshot() document
    }

The optional top-level ``topology`` key carries the fabric's
:meth:`~repro.noc.topology.Topology.descriptor`; a restore that passes
its own topology refuses a checkpoint taken on a different fabric
before any state is touched (a 4x4-torus checkpoint cannot silently
restore into a 2x2 mesh).  Checkpoints without the key (pre-topology
files) restore as before.

Everything is plain JSON — tuples become lists on the way out and are
rebuilt by each component's ``restore_state``, so a checkpoint written
by one process restores in a fresh one.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from .component import MALFORMED_STATE, SnapshotError
from .kernel import Simulator

#: Version tag written into (and required from) every checkpoint file.
CHECKPOINT_SCHEMA = "multinoc-checkpoint/1"


class CheckpointError(Exception):
    """A checkpoint file is malformed or does not fit this system."""


def save_checkpoint(
    sim: Simulator,
    path: Union[str, Path],
    meta: Optional[dict] = None,
    topology=None,
) -> Path:
    """Serialise *sim*'s full state to *path*; returns the path.

    Must be called at a cycle boundary (between steps or inside a
    watcher).  *meta* is stored verbatim for the restoring side to
    sanity-check (e.g. the system configuration, a free-form note).
    Pass the system's :class:`~repro.noc.topology.Topology` (or its
    descriptor dict) as *topology* to stamp the fabric shape into the
    file for restore-time validation.
    """
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "cycle": sim.cycle,
        "meta": meta or {},
        "state": sim.snapshot(),
    }
    if topology is not None:
        doc["topology"] = _descriptor(topology)
    path = Path(path)
    path.write_text(json.dumps(doc))
    return path


def _descriptor(topology) -> dict:
    if isinstance(topology, dict):
        return dict(topology)
    return topology.descriptor()


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Read and validate a checkpoint document from *path*."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: not a {CHECKPOINT_SCHEMA} checkpoint "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    if "state" not in doc or "cycle" not in doc:
        raise CheckpointError(f"{path}: checkpoint missing state/cycle")
    if "topology" in doc and not isinstance(doc["topology"], dict):
        raise CheckpointError(f"{path}: malformed topology descriptor")
    return doc


def restore_checkpoint(
    sim: Simulator, doc: Union[dict, str, Path], topology=None
) -> int:
    """Restore *sim* from a checkpoint document or file path.

    Returns the restored cycle.  The simulator must hold a component
    tree with the same topology the checkpoint was taken from; pass the
    live system's topology (plugin or descriptor dict) to have that
    checked against the checkpoint's ``topology`` stamp before any
    state is touched.  State that does not fit the component tree, or
    lacks a key or has a mistyped value, raises :class:`CheckpointError`
    (naming the component where one is at fault).
    """
    if not isinstance(doc, dict):
        doc = load_checkpoint(doc)
    if topology is not None and "topology" in doc:
        want, have = _descriptor(topology), doc["topology"]
        if want != have:
            raise CheckpointError(
                f"checkpoint was taken on a different fabric: "
                f"checkpoint {have}, system {want}"
            )
    try:
        sim.restore(doc["state"])
    except SnapshotError as exc:
        raise CheckpointError(str(exc)) from exc
    except MALFORMED_STATE as exc:
        raise CheckpointError(
            f"malformed checkpoint state ({type(exc).__name__}: {exc})"
        ) from exc
    return sim.cycle


@dataclass
class CheckpointEntry:
    """One in-memory ring slot: a cycle and its snapshot document."""

    cycle: int
    state: dict
    #: length of the telemetry sink's event list at snapshot time, so a
    #: restore can truncate the trace back to exactly this point before
    #: deterministic replay re-emits the tail (no duplicate events).
    events_len: Optional[int] = None


class CheckpointRing:
    """Periodic in-memory checkpoints, the substrate of reverse-step.

    Attached to a :class:`~repro.sim.kernel.Simulator` as a watcher, the
    ring records a snapshot every *interval* cycles (at the first cycle
    boundary at or past the due point — fast-forwarded spans simply land
    the checkpoint at the span's landing cycle).  ``capacity`` bounds
    memory: the oldest non-origin entry is evicted first, and the origin
    (the first checkpoint taken, normally at debugger attach) is pinned
    so ``goto`` can always reach any cycle at or after it, at worst by a
    long replay.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: int = 1000,
        capacity: int = 8,
        sink=None,
    ):
        if interval < 1:
            raise ValueError("checkpoint interval must be at least 1 cycle")
        if capacity < 2:
            raise ValueError("checkpoint ring needs capacity >= 2")
        self.sim = sim
        self.interval = interval
        self.capacity = capacity
        self.sink = sink
        self._entries: List[CheckpointEntry] = []  # sorted by cycle
        self._last_recorded: Optional[int] = None
        self._attached = False
        if sink is not None:
            sink.track("checkpoint", process="sim")

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> "CheckpointRing":
        """Record the origin checkpoint now and start the periodic ring."""
        self.record()
        self.sim.add_watcher(self._on_cycle)
        self._attached = True
        return self

    def detach(self) -> None:
        self.sim.remove_watcher(self._on_cycle)
        self._attached = False

    def _on_cycle(self, cycle: int) -> None:
        if (
            self._last_recorded is None
            or cycle - self._last_recorded >= self.interval
        ):
            self.record()

    # -- recording -------------------------------------------------------

    def record(self) -> CheckpointEntry:
        """Snapshot the simulator now and insert it into the ring."""
        entry = CheckpointEntry(
            cycle=self.sim.cycle,
            state=self.sim.snapshot(),
            events_len=(
                len(self.sink.events) if self.sink is not None else None
            ),
        )
        self._last_recorded = entry.cycle
        cycles = [e.cycle for e in self._entries]
        pos = bisect_right(cycles, entry.cycle)
        if pos > 0 and self._entries[pos - 1].cycle == entry.cycle:
            self._entries[pos - 1] = entry  # replay re-recorded this slot
        else:
            self._entries.insert(pos, entry)
        while len(self._entries) > self.capacity:
            # evict the oldest non-origin entry (origin stays pinned)
            del self._entries[1]
        if self.sink is not None:
            self.sink.instant(
                "checkpoint", "checkpoint", entry.cycle, ring=len(self._entries)
            )
        return entry

    # -- lookup ----------------------------------------------------------

    @property
    def entries(self) -> List[CheckpointEntry]:
        return list(self._entries)

    def nearest(self, cycle: int) -> Optional[CheckpointEntry]:
        """The most recent entry at or before *cycle*, or None."""
        cycles = [e.cycle for e in self._entries]
        pos = bisect_right(cycles, cycle)
        return self._entries[pos - 1] if pos else None

    def restore_nearest(self, cycle: int) -> CheckpointEntry:
        """Restore the nearest entry at or before *cycle*; returns it."""
        entry = self.nearest(cycle)
        if entry is None:
            raise CheckpointError(
                f"no checkpoint at or before cycle {cycle} "
                f"(ring starts at "
                f"{self._entries[0].cycle if self._entries else 'never'})"
            )
        self.sim.restore(entry.state)
        return entry

    def describe(self) -> str:
        """One-line ring summary for the debugger's ``info`` command."""
        if not self._entries:
            return "checkpoint ring: empty"
        cycles = [e.cycle for e in self._entries]
        return (
            f"checkpoint ring: {len(cycles)}/{self.capacity} entries, "
            f"every {self.interval} cycles, covering "
            f"{cycles[0]}..{cycles[-1]}"
        )

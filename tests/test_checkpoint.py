"""Checkpoint/restore determinism tests (the tentpole acceptance gate).

A snapshot taken at cycle N, serialised to disk, restored into a fresh
platform session and run to the end must be bit-identical to the
uninterrupted run at the same absolute final cycle — memories, CPU
state, printf transcripts and the telemetry stream — under every
combination of kernel modes on each side of the checkpoint.
"""

import json

import pytest

from repro import MultiNoCPlatform, TelemetrySink
from repro.sim import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointRing,
    SnapshotError,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)

from .test_kernel_equivalence import CONSUMER, PRODUCER, _edge_image, _events

#: absolute final cycle both sides of every comparison run to; well past
#: the wait/notify workload's last HALT (~7.5k cycles)
SYNC_TARGET = 12_000


def _launch(strict):
    return MultiNoCPlatform.standard().launch(
        telemetry=TelemetrySink(), strict_lockstep=strict
    )


def _scrub(node):
    """Drop per-component last-eval timestamps (``now``/``cycle``).

    They are scheduling bookkeeping, not architecture: under idle
    fast-forward a sleeping component's tracker legitimately lags the
    strict-lockstep value, while every wire, register and memory word
    must still match bit for bit.
    """
    if isinstance(node, dict):
        return {
            k: _scrub(v) for k, v in node.items() if k not in ("now", "cycle")
        }
    if isinstance(node, list):
        return [_scrub(v) for v in node]
    return node


def _fingerprint(session):
    """Everything observable: component state, host transcript, stats.

    JSON round-tripped so in-memory state (IntEnum flits, tuples)
    compares in the same normal form a disk checkpoint restores to.
    """
    system = session.system
    return {
        "cycle": session.sim.cycle,
        "components": _scrub(
            json.loads(json.dumps(session.sim.snapshot()["components"]))
        ),
        "monitors": [
            m.to_state() for _, m in sorted(session.host.monitors.items())
        ],
        "printfs": {
            pid: session.host.monitor(pid).printf_values
            for pid in system.processors
        },
    }


def _start_sync_workload(session):
    session.host.sync()
    session.start(2, CONSUMER)
    session.start(1, PRODUCER)


def _run_straight(strict, snap_cycle, path):
    """Uninterrupted wait/notify run; checkpoint to *path* at the first
    cycle boundary at or past *snap_cycle* (mid-activity, driverless)."""
    session = _launch(strict)
    _start_sync_workload(session)
    mark = {}

    def watcher(cycle):
        if cycle >= snap_cycle and "cycle" not in mark:
            save_checkpoint(session.sim, path, meta={"workload": "sync"})
            mark["cycle"] = cycle
            mark["events"] = len(session.telemetry.events)

    session.sim.add_watcher(watcher)
    session.wait_all_halted(max_cycles=5_000_000)
    session.sim.step(SYNC_TARGET - session.sim.cycle)
    assert "cycle" in mark, "snapshot point was never reached"
    return session, mark


def _run_resumed(strict, path):
    """Fresh session restored from *path*, run to the same final cycle.

    Returns (session, base) where *base* is the number of events the
    fresh session emitted during construction (router configs), before
    the restored timeline resumed.
    """
    session = _launch(strict)
    base = len(session.telemetry.events)
    restore_checkpoint(session.sim, path)
    session.wait_all_halted(max_cycles=5_000_000)
    session.sim.step(SYNC_TARGET - session.sim.cycle)
    return session, base


class TestSyncWorkloadDeterminism:
    """Wait/notify (edge cases: remote stores, notify/wait, printf)."""

    @pytest.mark.parametrize("snap_strict", [False, True])
    @pytest.mark.parametrize("resume_strict", [False, True])
    def test_resume_bit_identical(
        self, snap_strict, resume_strict, tmp_path
    ):
        path = tmp_path / "sync.ckpt"
        straight, mark = _run_straight(snap_strict, 5_500, path)
        resumed, _ = _run_resumed(resume_strict, path)
        assert _fingerprint(resumed) == _fingerprint(straight)

    def test_resumed_telemetry_matches_straight_tail(self, tmp_path):
        path = tmp_path / "sync.ckpt"
        straight, mark = _run_straight(False, 5_500, path)
        resumed, base = _run_resumed(False, path)
        tail = _events(straight.telemetry)[mark["events"] :]
        assert _events(resumed.telemetry)[base:] == tail

    def test_checkpoint_file_is_schema_tagged_json(self, tmp_path):
        path = tmp_path / "sync.ckpt"
        _run_straight(False, 5_500, path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == CHECKPOINT_SCHEMA
        assert doc["meta"] == {"workload": "sync"}
        assert doc["cycle"] >= 5_500
        assert load_checkpoint(path)["cycle"] == doc["cycle"]


class TestEdgeWorkloadDeterminism:
    """Edge detection: the image app exercises scanf/printf streaming.

    The app run is host-driven (Python in the loop), so the checkpoint
    is taken at the landing cycle after the run; the restored session
    must continue stepping bit-identically from there.
    """

    @pytest.mark.parametrize("snap_strict,resume_strict",
                             [(False, True), (True, False)])
    def test_post_run_restore_cross_mode(
        self, snap_strict, resume_strict, tmp_path
    ):
        from repro.apps import EdgeDetectionApp

        path = tmp_path / "edge.ckpt"
        session = _launch(snap_strict)
        session.host.sync()
        app = EdgeDetectionApp(session.host, processors=[1, 2])
        app.deploy()
        app.run(_edge_image())
        save_checkpoint(session.sim, path)
        session.sim.step(2_000)
        expected = _fingerprint(session)

        resumed = _launch(resume_strict)
        cycle = restore_checkpoint(resumed.sim, path)
        assert cycle == json.loads(path.read_text())["cycle"]
        resumed.sim.step(expected["cycle"] - resumed.sim.cycle)
        assert _fingerprint(resumed) == expected


class TestCheckpointErrors:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_load_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(path)

    def test_load_truncated_document(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps({"schema": CHECKPOINT_SCHEMA}))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_restore_topology_mismatch(self, tmp_path):
        path = tmp_path / "small.ckpt"
        small = MultiNoCPlatform(
            mesh=(3, 3), n_processors=3, n_memories=2
        ).launch()
        save_checkpoint(small.sim, path)
        other = _launch(False)
        with pytest.raises(CheckpointError):
            restore_checkpoint(other.sim, path)

    @pytest.mark.parametrize(
        "key, value",
        [("memory", None), ("notify_counts", 5), ("activations", None)],
        ids=["old-layout", "mistyped", "missing"],
    )
    def test_restore_malformed_component_state(self, tmp_path, key, value):
        """A processor state with a key missing or mistyped fails with
        CheckpointError naming the processor, not a bare KeyError."""
        path = save_checkpoint(_launch(False).sim, tmp_path / "a.ckpt")
        doc = json.loads(path.read_text())
        proc1 = doc["state"]["components"][0]["children"][2]["state"]
        assert "activations" in proc1  # the first Processor IP's state
        if value is None:
            del proc1[key]
        else:
            proc1[key] = value
        with pytest.raises(CheckpointError, match="proc1"):
            restore_checkpoint(_launch(False).sim, doc)

    def test_restore_state_without_cycle(self, tmp_path):
        path = save_checkpoint(_launch(False).sim, tmp_path / "a.ckpt")
        doc = json.loads(path.read_text())
        del doc["state"]["cycle"]
        with pytest.raises(CheckpointError, match="malformed"):
            restore_checkpoint(_launch(False).sim, doc)


class TestCheckpointRing:
    def _sim(self):
        # strict lock-step: watchers fire every cycle even on an idle
        # board, so the ring's periodic schedule is easy to assert on
        # (under idle fast-forward the ring simply records at landing
        # cycles instead — covered by the workload tests above)
        return _launch(True).sim

    def test_validation(self):
        sim = self._sim()
        with pytest.raises(ValueError):
            CheckpointRing(sim, interval=0)
        with pytest.raises(ValueError):
            CheckpointRing(sim, capacity=1)

    def test_attach_records_origin_and_period(self):
        sim = self._sim()
        ring = CheckpointRing(sim, interval=100, capacity=8).attach()
        sim.step(350)
        cycles = [e.cycle for e in ring.entries]
        assert cycles[0] == 0
        assert cycles == sorted(cycles)
        # one entry per 100-cycle period (plus the origin)
        assert 3 <= len(cycles) <= 5

    def test_capacity_evicts_oldest_non_origin(self):
        sim = self._sim()
        ring = CheckpointRing(sim, interval=50, capacity=3).attach()
        sim.step(500)
        cycles = [e.cycle for e in ring.entries]
        assert len(cycles) == 3
        assert cycles[0] == 0  # origin pinned
        assert cycles[-1] > 300  # recent entries survive

    def test_nearest_and_restore_nearest(self):
        sim = self._sim()
        ring = CheckpointRing(sim, interval=100, capacity=16).attach()
        sim.step(450)
        entry = ring.nearest(250)
        assert entry is not None and entry.cycle <= 250
        restored = ring.restore_nearest(250)
        assert sim.cycle == restored.cycle == entry.cycle

    def test_restore_nearest_before_origin_raises(self):
        sim = self._sim()
        ring = CheckpointRing(sim, interval=100).attach()
        sim.step(50)
        with pytest.raises(CheckpointError):
            ring.restore_nearest(-1)  # origin is at 0; -1 is unreachable

    def test_same_cycle_record_replaces(self):
        sim = self._sim()
        ring = CheckpointRing(sim, interval=100)
        ring.record()
        ring.record()
        assert len(ring.entries) == 1

    def test_events_len_tracks_sink(self):
        session = _launch(False)
        ring = CheckpointRing(
            session.sim, interval=100, sink=session.telemetry
        ).attach()
        session.host.sync()
        lens = [e.events_len for e in ring.entries]
        assert all(n is not None for n in lens)
        assert lens == sorted(lens)

    def test_describe(self):
        sim = self._sim()
        ring = CheckpointRing(sim, interval=100)
        assert "empty" in ring.describe()
        ring.attach()
        sim.step(120)
        assert "every 100 cycles" in ring.describe()

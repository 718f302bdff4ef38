"""Checkpoint determinism, files, errors, the ring and the resumed
telemetry tail.

A run split at a checkpoint, JSON round-tripped and resumed in a fresh
build must be bit-identical to the uninterrupted run, under every
combination of kernel modes on each side; the comparison is the oracle
in ``tests/test_equivalence.py``.
"""

import json

import pytest

from repro import MultiNoCPlatform, TelemetrySink
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.noc.network import HermesNetwork
from repro.sim import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointRing,
    SnapshotError,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)

from .test_equivalence import (
    CONSUMER,
    PRODUCER,
    SYNC_BOARD,
    Draw,
    _events,
    assert_matches_lockstep,
)

#: absolute final cycle both sides of every comparison run to; well past
#: the wait/notify workload's last HALT (~7.5k cycles)
SYNC_TARGET = 12_000


def _launch(strict):
    return MultiNoCPlatform.standard().launch(
        telemetry=TelemetrySink(), strict_lockstep=strict
    )


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
    def test_resume_bit_identical(self, snap_strict, resume_strict):
        """Split mid-activity, 1000 cycles after the programs start."""
        assert_matches_lockstep(
            Draw(SYNC_BOARD, (snap_strict, resume_strict), split=1000)
        )

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
    is taken at the landing cycle after the run; the restored build
    must continue stepping bit-identically from there.
    """

    @pytest.mark.parametrize("snap_strict,resume_strict",
                             [(False, True), (True, False)])
    def test_post_run_restore_cross_mode(self, snap_strict, resume_strict):
        assert_matches_lockstep(
            Draw(("edge", 4, 16, 7, True), (snap_strict, resume_strict), split=0)
        )


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

    def test_failed_restore_leaves_the_simulator_untouched(self):
        """A document that fails part-way (proc2 after proc1) puts every
        component back, through the kernel and the checkpoint layer."""
        source = _launch(False)
        source.system.processor(1).banks.write_word(0x10, 0xBEEF)
        doc = {"state": source.sim.snapshot()}
        proc2 = doc["state"]["components"][0]["children"][3]["state"]
        del proc2["activations"]
        target = _launch(False)
        with pytest.raises(SnapshotError, match="proc2"):
            target.sim.restore(doc["state"])
        with pytest.raises(CheckpointError, match="proc2"):
            restore_checkpoint(target.sim, doc)
        assert target.system.processor(1).banks.read_word(0x10) == 0
        target.host.sync()
        assert target.read(1, 0x10, 1) == [0]

    def test_restore_state_without_cycle(self, tmp_path):
        path = save_checkpoint(_launch(False).sim, tmp_path / "a.ckpt")
        doc = json.loads(path.read_text())
        del doc["state"]["cycle"]
        with pytest.raises(CheckpointError, match="malformed"):
            restore_checkpoint(_launch(False).sim, doc)


class TestBareNetworkCheckpoint:
    def test_restore_keeps_noc_statistics(self):
        """A bare HermesNetwork checkpoint carries its NetworkStats, so
        a restored run reports the straight run's packet counts."""
        config = TrafficConfig(rate=0.05, duration=200, seed=3)

        def build():
            net = HermesNetwork(topology="mesh:3x3")
            sources = drive_traffic(net, config)
            sim = net.make_simulator()
            sim.reset()
            return net, sim, sources

        def drain(net, sim, sources):
            sim.run_until(
                lambda: all(s.done for s in sources) and net.drained,
                max_cycles=100_000,
            )
            return sim.cycle, net.stats.snapshot()

        straight = drain(*build())
        net, sim, sources = build()
        sim.step(150)
        doc = json.loads(json.dumps(sim.snapshot()))
        net, sim, sources = build()
        sim.restore(doc)
        resumed = drain(net, sim, sources)
        assert straight[1]["packets_injected"] == 86
        assert resumed[0] == straight[0] == 890
        assert resumed[1] == json.loads(json.dumps(straight[1]))


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

"""Tests for the simulation kernel and its self-latching wires."""

import pytest

from repro.sim import Component, SimulationTimeout, Simulator, Wire


class Counter(Component):
    """Increments an output wire every cycle."""

    def __init__(self, name="counter"):
        super().__init__(name)
        self.out = self.wire("out", reset=0)

    def eval(self, cycle):
        self.out.drive(self.out.read(cycle) + 1, cycle)


class Follower(Component):
    """Copies another wire with one cycle of latency."""

    def __init__(self, source, name="follower"):
        super().__init__(name)
        self.source = source
        self.out = self.wire("out", reset=0)

    def eval(self, cycle):
        self.out.drive(self.source.read(cycle), cycle)


class Edges:
    """A wire's reader that records the edges it is handed."""

    def __init__(self, wire):
        wire.reader = self
        self.seen = []

    def edge(self, cycle, level):
        self.seen.append((cycle, level))


class TestWire:
    def test_initial_value_is_reset(self):
        w = Wire("w", reset=7)
        assert w.value == 7

    def test_drive_is_invisible_until_commit(self):
        # a drive at cycle 0 is seen from cycle 1 on
        w = Wire("w", reset=0)
        w.drive(5, 0)
        assert w.read(0) == 0
        assert w.read(1) == 5
        assert w.value == 5  # between cycles: what readers see next

    def test_reset_clears_pending_drive(self):
        w = Wire("w", reset=3)
        w.drive(9, 0)
        w.reset()
        assert w.read(0) == w.read(1) == 3

    def test_width_check_accepts_in_range(self):
        w = Wire("w", width=4)
        w.drive(15, 0)
        assert w.read(1) == 15

    def test_width_check_rejects_too_large(self):
        w = Wire("w", width=4)
        with pytest.raises(ValueError):
            w.drive(16, 0)

    def test_width_check_rejects_negative(self):
        w = Wire("w", width=4)
        with pytest.raises(ValueError):
            w.drive(-1, 0)

    def test_width_check_rejects_non_int(self):
        w = Wire("w", width=4)
        with pytest.raises(ValueError):
            w.drive("x", 0)

    def test_unwidthed_wire_accepts_any_value(self):
        w = Wire("w")
        w.drive(("tuple", 1), 0)
        assert w.read(1) == ("tuple", 1)

    def test_load_forgets_a_later_drive(self):
        # a checkpoint restored into a board that ran past it: the
        # restored value shows at the restored cycle, not the one before
        # the drive the board made later
        w = Wire("w", reset=1)
        w.drive(0, 500)
        w.load(0)
        assert w.read(300) == w.read(501) == 0


class TestDriveOnChange:
    """A drive equal to the value last driven returns at once: the
    wire is not restamped and its reader is told nothing."""

    def test_equal_drive_is_not_queued(self):
        w = Wire("w", reset=0)
        edges = Edges(w)
        w.drive(0, 0)
        w.drive(4, 1)
        w.drive(4, 2)
        assert edges.seen == [(2, 4)]
        assert w.read(2) == 4  # not restamped at cycle 2

    def test_changed_drive_is_queued_once_per_cycle(self):
        # the value before the cycle stays what that cycle reads
        w = Wire("w", reset=0)
        w.drive(5, 3)
        w.drive(6, 3)
        w.drive(6, 3)
        assert w.read(3) == 0
        assert w.read(4) == 6
        w.drive(9, 4)
        assert (w.read(4), w.read(5)) == (6, 9)

    def test_drive_back_to_committed_value_latches_it(self):
        w = Wire("w", reset=0)
        w.drive(5, 0)
        w.drive(0, 0)
        assert w.read(0) == w.read(1) == 0

    def test_checked_wire_rejects_out_of_range_value_equal_to_next(self):
        w = Wire("w", reset=300, width=8)
        assert w.value == 300
        with pytest.raises(ValueError):
            w.drive(300, 0)


class TestComponent:
    def test_owned_wires_commit_through_component(self):
        c = Counter()
        sim = Simulator(strict_lockstep=True)
        sim.add(c)
        sim.step()
        assert c.out.value == 1

    def test_children_evaluated_by_default_eval(self):
        parent = Component("parent")
        child = Counter("child")
        parent.add_child(child)
        parent.eval(0)
        assert child.out.read(1) == 1

    def test_reset_recurses(self):
        parent = Component("parent")
        child = Counter("child")
        parent.add_child(child)
        parent.eval(0)
        parent.reset()
        assert child.out.value == child.out.read(1) == 0

    def test_lockstep_latches_wires_adopted_after_elaboration(self):
        parent = Component("parent")
        sim = Simulator(strict_lockstep=True)
        sim.add(parent)
        sim.step()
        child = parent.add_child(Counter("child"))
        sim.step()
        assert child.out.value == 1

    def test_iter_components_preorder(self):
        parent = Component("a")
        b = parent.add_child(Component("b"))
        b.add_child(Component("c"))
        names = [c.name for c in parent.iter_components()]
        assert names == ["a", "b", "c"]


class TestSimulator:
    def test_step_advances_cycle_count(self):
        sim = Simulator()
        sim.step(5)
        assert sim.cycle == 5

    def test_counter_counts_cycles(self):
        sim = Simulator()
        c = sim.add(Counter())
        sim.step(10)
        assert c.out.value == 10

    def test_two_phase_gives_one_cycle_latency(self):
        sim = Simulator()
        c = sim.add(Counter())
        f = sim.add(Follower(c.out))
        sim.step(5)
        # follower lags the counter by exactly one clock
        assert f.out.value == c.out.value - 1

    def test_order_independence(self):
        """Evaluation order must not change results."""
        sim1 = Simulator()
        c1 = sim1.add(Counter())
        f1 = sim1.add(Follower(c1.out))
        sim2 = Simulator()
        f2 = Follower(None)  # placeholder, fixed below
        c2 = Counter()
        f2.source = c2.out
        sim2.add(f2)
        sim2.add(c2)
        sim1.step(7)
        sim2.step(7)
        assert (c1.out.value, f1.out.value) == (c2.out.value, f2.out.value)

    def test_double_add_is_ignored(self):
        sim = Simulator()
        c = Counter()
        sim.add(c)
        sim.add(c)
        sim.step(3)
        assert c.out.value == 3  # would be 6 if evaluated twice

    def test_run_until_stops_on_predicate(self):
        sim = Simulator()
        c = sim.add(Counter())
        spent = sim.run_until(lambda: c.out.value >= 4)
        assert c.out.value == 4
        assert spent == 4

    def test_run_until_times_out(self):
        sim = Simulator()
        sim.add(Counter())
        with pytest.raises(SimulationTimeout):
            sim.run_until(lambda: False, max_cycles=10)

    def test_reset_restores_cycle_zero(self):
        sim = Simulator()
        c = sim.add(Counter())
        sim.step(5)
        sim.reset()
        assert sim.cycle == 0
        assert c.out.value == 0

    def test_elapsed_seconds_uses_clock(self):
        sim = Simulator(clock_hz=1000.0)
        sim.step(500)
        assert sim.elapsed_seconds() == pytest.approx(0.5)

    def test_watcher_called_each_cycle(self):
        sim = Simulator()
        seen = []
        sim.add_watcher(seen.append)
        sim.step(3)
        assert seen == [1, 2, 3]

    def test_double_add_watcher_is_ignored(self):
        sim = Simulator()
        seen = []
        sim.add_watcher(seen.append)
        sim.add_watcher(seen.append)
        sim.step(2)
        assert seen == [1, 2]  # would be [1, 1, 2, 2] if registered twice

    def test_remove_watcher(self):
        sim = Simulator()
        seen = []
        sim.add_watcher(seen.append)
        sim.step(2)
        sim.remove_watcher(seen.append)
        sim.step(2)
        assert seen == [1, 2]

    def test_remove_unknown_watcher_is_a_no_op(self):
        sim = Simulator()
        sim.remove_watcher(lambda cycle: None)
        sim.step(1)

    @pytest.mark.parametrize("strict", [False, True])
    def test_watcher_removing_itself_does_not_skip_the_next(self, strict):
        sim = Simulator(strict_lockstep=strict)
        calls = []

        def a(cycle):
            calls.append(("a", cycle))
            sim.remove_watcher(a)

        sim.add_watcher(a)
        sim.add_watcher(lambda cycle: calls.append(("b", cycle)))
        sim.step(3)
        assert calls == [("a", 1), ("b", 1), ("b", 2), ("b", 3)]

    def test_stride_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="stride"):
            sim.add_watcher(lambda cycle: None, stride=0)

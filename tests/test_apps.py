"""Tests for the application layer: canned programs, edge detection,
synthetic workloads."""

import json

import pytest

from repro.apps import programs, reference_sobel, worker_program
from repro.apps.edge_detection import EdgeDetectionApp
from repro.apps.workloads import (
    PATTERNS,
    TrafficConfig,
    bit_complement,
    drive_traffic,
    hotspot,
    transpose,
    uniform_random,
)
from repro.core import MultiNoCPlatform, Program
from repro.noc import HermesNetwork
import random


class TestCannedPrograms:
    def test_sum_range(self):
        sim = Program.from_source(programs.sum_range(10)).simulate()
        assert sim.printed == [55]
        assert sim.memory[0x80] == 55

    def test_fibonacci(self):
        program = Program.from_source(programs.fibonacci(8))
        sim = program.simulate()
        assert sim.memory[0x80:0x88] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_vector_add(self):
        src = programs.vector_add(4, 0x100, 0x110, 0x120)
        sim_obj = Program.from_source(src)
        from repro.r8 import R8Simulator

        sim = R8Simulator()
        sim.load(sim_obj.obj)
        sim.memory[0x100:0x104] = [1, 2, 3, 4]
        sim.memory[0x110:0x114] = [10, 20, 30, 40]
        sim.activate()
        sim.run()
        assert sim.memory[0x120:0x124] == [11, 22, 33, 44]

    def test_echo_scanf(self):
        sim = Program.from_source(programs.echo_scanf(3)).simulate(
            scanf_values=[5, 6, 7]
        )
        assert sim.printed == [5, 6, 7]

    def test_instruction_mix_cpi(self):
        sim = Program.from_source(programs.instruction_mix()).simulate()
        assert 2.0 < sim.cpi() < 4.0

    def test_remote_copy_on_system(self):
        session = MultiNoCPlatform.standard().launch()
        session.host.sync()
        session.write("mem0", 0, [11, 22, 33])
        session.run(1, programs.remote_copy(3, 2048, 0x200))
        assert session.read(1, 0x200, 3) == [11, 22, 33]


class TestReferenceSobel:
    def test_flat_image_has_no_edges(self):
        image = [[100] * 6 for _ in range(5)]
        out = reference_sobel(image)
        assert all(v == 0 for row in out for v in row)

    def test_vertical_edge_detected(self):
        image = [[0, 0, 0, 255, 255, 255] for _ in range(5)]
        out = reference_sobel(image)
        assert out[2][2] > 0 or out[2][3] > 0

    def test_borders_zero(self):
        image = [[(x * y) % 256 for x in range(6)] for y in range(5)]
        out = reference_sobel(image)
        assert all(v == 0 for v in out[0])
        assert all(v == 0 for v in out[-1])
        assert all(row[0] == 0 and row[-1] == 0 for row in out)

    def test_clamped_to_255(self):
        image = [
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [255, 255, 255, 255, 255],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]
        out = reference_sobel(image)
        assert max(v for row in out for v in row) == 255


class TestEdgeDetectionOnSystem:
    def test_worker_assembles(self):
        obj = worker_program()
        assert obj.size_words < 1024  # fits local memory with buffers

    def test_matches_golden_model(self):
        rng = random.Random(3)
        image = [[rng.randrange(256) for _ in range(8)] for _ in range(5)]
        session = MultiNoCPlatform.standard().launch()
        app = EdgeDetectionApp(session.host)
        app.deploy()
        result = app.run(image)
        assert result.output == reference_sobel(image)

    def test_single_processor_variant(self):
        rng = random.Random(4)
        image = [[rng.randrange(256) for _ in range(6)] for _ in range(4)]
        session = MultiNoCPlatform.standard().launch()
        app = EdgeDetectionApp(session.host, processors=[2])
        app.deploy()
        result = app.run(image)
        assert result.output == reference_sobel(image)
        assert result.lines_per_processor == {2: 2}

    def test_width_limit_enforced(self):
        session = MultiNoCPlatform.standard().launch()
        app = EdgeDetectionApp(session.host)
        with pytest.raises(ValueError):
            app.run([[0] * 100 for _ in range(4)])


class TestWorkloadPatterns:
    def test_uniform_never_self(self):
        rng = random.Random(0)
        for _ in range(100):
            assert uniform_random((1, 1), 4, 4, rng) != (1, 1)

    def test_transpose_swaps_coordinates(self):
        assert transpose((1, 2), 4, 4, None) == (2, 1)

    def test_transpose_diagonal_redirected(self):
        assert transpose((2, 2), 4, 4, None) != (2, 2)

    def test_bit_complement(self):
        assert bit_complement((0, 0), 4, 4, None) == (3, 3)

    def test_hotspot_targets_hot_node(self):
        pick = hotspot((0, 0))
        rng = random.Random(0)
        assert pick((2, 2), 4, 4, rng) == (0, 0)
        assert pick((0, 0), 4, 4, rng) != (0, 0)

    def test_all_named_patterns_valid(self):
        rng = random.Random(1)
        for name, pattern in PATTERNS.items():
            for x in range(3):
                for y in range(3):
                    tx, ty = pattern((x, y), 3, 3, rng)
                    assert 0 <= tx < 3 and 0 <= ty < 3, name


class TestTrafficSources:
    def test_schedule_deterministic_per_seed(self):
        net1 = HermesNetwork(3, 3)
        net2 = HermesNetwork(3, 3)
        cfg = TrafficConfig(rate=0.1, duration=500, seed=9)
        s1 = drive_traffic(net1, cfg)
        s2 = drive_traffic(net2, cfg)
        for a, b in zip(s1, s2):
            assert a.schedule == b.schedule

    def test_traffic_is_delivered(self):
        net = HermesNetwork(3, 3)
        cfg = TrafficConfig(rate=0.02, duration=400, seed=1, payload_flits=4)
        sources = drive_traffic(net, cfg)
        sim = net.make_simulator()
        sim.step(cfg.duration)
        net.run_to_drain(sim, max_cycles=100_000)
        injected = sum(s.injected for s in sources)
        assert injected > 0
        assert net.stats.packets_delivered == injected

    def test_schedule_position_survives_checkpoint(self):
        cfg = TrafficConfig(
            pattern="uniform", rate=0.05, duration=600, seed=11
        )

        def build():
            net = HermesNetwork(4, 4)
            sources = drive_traffic(net, cfg)
            return net, net.make_simulator(), sources

        net, sim, sources = build()
        scheduled = sum(len(s.schedule) for s in sources)
        sim.step(300)
        doc = json.loads(json.dumps(sim.snapshot()))
        stats = json.loads(json.dumps(net.stats.snapshot()))
        net, sim, sources = build()
        sim.restore(doc)
        net.stats.restore(stats)
        sim.run_until(
            lambda: all(s.done for s in sources) and net.drained,
            max_cycles=100_000,
        )
        assert sum(s.injected for s in sources) == scheduled
        assert net.stats.packets_delivered == scheduled
        assert sim.cycle == 3410  # the unsplit run's drain cycle

    def test_done_follows_the_schedule_position(self):
        """``done`` is a plain attribute: it must equal "every scheduled
        packet injected" before the first eval, after the schedule is
        replaced, and after reset and restore."""
        net = HermesNetwork(2, 2)
        sources = drive_traffic(net, TrafficConfig(rate=0.0, duration=50))
        sim = net.make_simulator()
        assert all(s.schedule == [] and s.done for s in sources)
        source = sources[0]
        target = sources[1].ni.address
        source.schedule = [(3, target), (9, target)]
        assert not source.done
        sim.step(5)
        assert source.injected == 1 and not source.done
        doc = json.loads(json.dumps(sim.snapshot()))
        sim.step(5)
        assert source.done
        sim.restore(doc)
        assert source.injected == 1 and not source.done
        sim.reset()
        assert source.injected == 0 and not source.done
        sim.step(10)
        assert source.done

    def test_injection_rate_roughly_matches(self):
        net = HermesNetwork(2, 2)
        cfg = TrafficConfig(rate=0.05, duration=2000, seed=3)
        sources = drive_traffic(net, cfg)
        expected = cfg.rate * cfg.duration
        for source in sources:
            assert expected * 0.5 <= len(source.schedule) <= expected * 1.6

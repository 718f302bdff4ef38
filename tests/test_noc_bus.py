"""Tests for the shared-bus baseline fabric."""

import pytest

from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.noc import HermesNetwork, NetworkStats, Packet, SharedBusNetwork


class TestBusBasics:
    def test_packet_delivery(self):
        bus = SharedBusNetwork(2, 2)
        sim = bus.make_simulator()
        bus.send((0, 0), (1, 1), [1, 2, 3])
        bus.run_to_drain(sim, max_cycles=1000)
        packets = bus.collect_received()
        assert len(packets) == 1
        assert packets[0].payload == [1, 2, 3]
        assert packets[0].target == (1, 1)

    def test_latency_is_arbitration_plus_flits(self):
        bus = SharedBusNetwork(2, 2, arbitration_cycles=2)
        sim = bus.make_simulator()
        bus.send((0, 0), (1, 0), [0] * 8)  # 10 flits on the wire
        bus.run_to_drain(sim, max_cycles=1000)
        packet = bus.collect_received()[0]
        assert packet.latency == 2 + 10

    def test_one_transaction_at_a_time(self):
        """Two packets serialise: total time = sum of both transfers."""
        bus = SharedBusNetwork(2, 2)
        sim = bus.make_simulator()
        bus.send((0, 0), (1, 0), [0] * 8)
        bus.send((0, 1), (1, 1), [0] * 8)
        cycles = bus.run_to_drain(sim, max_cycles=1000)
        assert cycles >= 2 * (2 + 10)

    def test_round_robin_fairness(self):
        bus = SharedBusNetwork(2, 1)
        sim = bus.make_simulator()
        for _ in range(3):
            bus.send((0, 0), (1, 0), [1])
            bus.send((1, 0), (0, 0), [2])
        bus.run_to_drain(sim, max_cycles=1000)
        received = bus.collect_received()
        # deliveries alternate between the two senders
        tags = [p.payload[0] for p in sorted(received, key=lambda p: p.delivered_cycle)]
        assert tags == [1, 2, 1, 2, 1, 2]

    def test_drained_and_reset(self):
        bus = SharedBusNetwork(2, 2)
        sim = bus.make_simulator()
        assert bus.drained
        bus.send((0, 0), (1, 1), [5])
        assert not bus.drained
        bus.reset()
        assert bus.drained

    def test_reset_clears_the_statistics(self):
        bus = SharedBusNetwork(2, 2)
        sim = bus.make_simulator()
        bus.send((0, 0), (1, 1), [5, 6])
        bus.run_to_drain(sim, max_cycles=1000)
        assert bus.stats.packets_delivered == 1
        sim.reset()
        assert bus.stats.snapshot() == NetworkStats().snapshot()

    def test_stats_latencies_recorded(self):
        bus = SharedBusNetwork(2, 2)
        sim = bus.make_simulator()
        bus.send((0, 0), (1, 1), [5, 6])
        bus.run_to_drain(sim, max_cycles=1000)
        bus.collect_received()
        assert bus.stats.packets_delivered == 1
        assert bus.stats.latencies[0] > 0


class TestBusVsNoCShape:
    def test_bus_throughput_capped_at_one_flit_per_cycle(self):
        bus = SharedBusNetwork(3, 3)
        cfg = TrafficConfig(rate=0.2, duration=1000, payload_flits=8, seed=2)
        drive_traffic(bus, cfg)
        sim = bus.make_simulator()
        sim.step(cfg.duration)
        bus.run_to_drain(sim, max_cycles=1_000_000)
        bus.collect_received()
        assert bus.stats.delivered_flits / sim.cycle <= 1.0

    def test_noc_beats_bus_on_large_system(self):
        def completion(make):
            net = make(5, 5)
            cfg = TrafficConfig(rate=0.02, duration=1200, payload_flits=8, seed=4)
            drive_traffic(net, cfg)
            sim = net.make_simulator()
            sim.step(cfg.duration)
            net.run_to_drain(sim, max_cycles=2_000_000)
            return sim.cycle

        assert completion(HermesNetwork) < completion(SharedBusNetwork)

    def test_same_workload_same_deliveries(self):
        results = []
        for make in (HermesNetwork, SharedBusNetwork):
            net = make(3, 3)
            cfg = TrafficConfig(rate=0.05, duration=500, seed=6)
            drive_traffic(net, cfg)
            sim = net.make_simulator()
            sim.step(cfg.duration)
            net.run_to_drain(sim, max_cycles=1_000_000)
            net.collect_received()
            results.append(net.stats.packets_delivered)
        assert results[0] == results[1] > 0

"""End-to-end NoC tests: delivery, latency exactness, ordering, stats."""

import pytest

from repro.analysis import hops, model_latency, paper_latency
from repro.noc import HermesNetwork, Packet


def run_single(src, dst, payload_len, width=5, height=5, **kw):
    net = HermesNetwork(width, height, **kw)
    sim = net.make_simulator()
    net.send(src, dst, [i & 0xFF for i in range(payload_len)])
    net.run_to_drain(sim, max_cycles=100_000)
    packets = net.collect_received()
    assert len(packets) == 1
    return net, packets[0]


class TestDelivery:
    def test_neighbour_delivery(self):
        _, p = run_single((0, 0), (1, 0), 4)
        assert p.target == (1, 0)
        assert p.payload == [0, 1, 2, 3]

    def test_corner_to_corner(self):
        _, p = run_single((0, 0), (4, 4), 8)
        assert p.target == (4, 4)

    def test_self_delivery_through_local_port(self):
        _, p = run_single((2, 2), (2, 2), 3)
        assert p.target == (2, 2)

    def test_reattached_ni_presents_its_flit_again(self):
        """Detach parks tx low, so an NI detached with a flit on the wire
        must present it afresh on the channel it attaches to next."""
        net = HermesNetwork(2, 1)
        sim = net.make_simulator()
        ni = net.interfaces[(0, 0)]
        net.send((0, 0), (1, 0), [7, 8])
        sim.step(1)
        assert ni.to_router.tx.value == 1  # header presented, not yet taken
        channels = ni.to_router, ni.from_router
        ni.detach()
        ni.attach(*channels)
        net.run_to_drain(sim, max_cycles=1000)
        [packet] = net.collect_received()
        assert packet.payload == [7, 8]

    def test_1xn_mesh(self):
        _, p = run_single((0, 0), (3, 0), 2, width=4, height=1)
        assert p.payload == [0, 1]

    def test_all_pairs_2x2(self):
        net = HermesNetwork(2, 2)
        sim = net.make_simulator()
        pairs = [
            (s, d)
            for s in net.mesh.addresses()
            for d in net.mesh.addresses()
            if s != d
        ]
        for i, (s, d) in enumerate(pairs):
            net.send(s, d, [i])
        net.run_to_drain(sim, max_cycles=100_000)
        assert len(net.collect_received()) == len(pairs)

    def test_mesh_dimension_validation(self):
        with pytest.raises(ValueError):
            HermesNetwork(0, 2)
        with pytest.raises(ValueError):
            HermesNetwork(17, 1)


class TestLatencyExactness:
    """The simulator's unloaded latency must match the closed-form model
    cycle-for-cycle, and track the paper's formula in shape."""

    @pytest.mark.parametrize("src,dst", [
        ((0, 0), (0, 1)),
        ((0, 0), (4, 0)),
        ((0, 0), (4, 4)),
        ((2, 2), (2, 2)),
        ((3, 1), (0, 4)),
    ])
    @pytest.mark.parametrize("payload", [1, 8, 32])
    def test_matches_model_exactly(self, src, dst, payload):
        net, p = run_single(src, dst, payload)
        n = hops(src, dst)
        assert p.latency == model_latency(n, payload + 2, routing_cycles=7)

    @pytest.mark.parametrize("rc", [1, 3, 11])
    def test_matches_model_for_other_routing_cycles(self, rc):
        net, p = run_single((0, 0), (3, 2), 6, routing_cycles=rc)
        n = hops((0, 0), (3, 2))
        assert p.latency == model_latency(n, 8, routing_cycles=rc)

    def test_paper_formula_same_slope_in_payload(self):
        """Both models grow at exactly 2 cycles per payload flit."""
        lat = {}
        for payload in (4, 20):
            _, p = run_single((0, 0), (2, 0), payload)
            lat[payload] = p.latency
        measured_slope = (lat[20] - lat[4]) / 16
        paper_slope = (paper_latency(3, 22) - paper_latency(3, 6)) / 16
        assert measured_slope == paper_slope == 2

    def test_paper_formula_matched_with_equivalent_ri(self):
        """With routing_cycles=11 the per-hop cost equals the paper's
        2 x Ri = 14 cycles at Ri=7."""
        net, p = run_single((0, 0), (4, 4), 8, routing_cycles=11)
        n = hops((0, 0), (4, 4))
        assert abs(p.latency - paper_latency(n, 10)) <= 3


class TestOrdering:
    def test_same_path_packets_arrive_in_order(self):
        net = HermesNetwork(4, 1)
        sim = net.make_simulator()
        for i in range(10):
            net.send((0, 0), (3, 0), [i, i, i])
        net.run_to_drain(sim, max_cycles=10_000)
        received = net.collect_received()
        assert [p.payload[0] for p in received] == list(range(10))

    def test_wormhole_packets_do_not_interleave(self):
        """Flits of different packets never mix within one connection."""
        net = HermesNetwork(3, 3)
        sim = net.make_simulator()
        net.send((0, 0), (2, 2), [1] * 20)
        net.send((2, 0), (2, 2), [2] * 20)
        net.send((0, 2), (2, 2), [3] * 20)
        net.run_to_drain(sim, max_cycles=10_000)
        for p in net.collect_received():
            assert len(set(p.payload)) == 1  # payloads stayed contiguous


class TestStats:
    def test_packet_counters(self):
        net = HermesNetwork(2, 2)
        sim = net.make_simulator()
        net.send((0, 0), (1, 1), [1, 2])
        net.send((1, 0), (0, 1), [3])
        net.run_to_drain(sim, max_cycles=10_000)
        net.collect_received()
        assert net.stats.packets_injected == 2
        assert net.stats.packets_delivered == 2
        assert len(net.stats.latencies) == 2
        assert net.stats.average_latency > 0
        assert net.stats.max_latency >= net.stats.average_latency

    def test_flit_counters_match_packet_sizes(self):
        net = HermesNetwork(2, 1)
        sim = net.make_simulator()
        net.send((0, 0), (1, 0), [1] * 6)
        net.run_to_drain(sim, max_cycles=10_000)
        net.collect_received()
        assert net.stats.delivered_flits == 8

    def test_identical_packets_latency_matched_fifo(self):
        """Stats must pair identical concurrent packets sanely."""
        net = HermesNetwork(3, 1)
        sim = net.make_simulator()
        for _ in range(4):
            net.send((0, 0), (2, 0), [9, 9])
        net.run_to_drain(sim, max_cycles=10_000)
        net.collect_received()
        assert len(net.stats.latencies) == 4
        assert all(l > 0 for l in net.stats.latencies)

    def test_drained_property(self):
        net = HermesNetwork(2, 2)
        sim = net.make_simulator()
        assert net.drained
        net.send((0, 0), (1, 1), [1])
        assert not net.drained
        net.run_to_drain(sim, max_cycles=10_000)
        assert net.drained

"""Property-based end-to-end NoC invariants.

Hypothesis generates arbitrary batches of packets over arbitrary small
meshes; the network must deliver each packet exactly once, uncorrupted,
to the right node — the core correctness contract of wormhole routing.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import HermesNetwork


@st.composite
def traffic_case(draw):
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 4))
    nodes = [(x, y) for x in range(width) for y in range(height)]
    n_packets = draw(st.integers(1, 12))
    packets = []
    for i in range(n_packets):
        src = draw(st.sampled_from(nodes))
        dst = draw(st.sampled_from(nodes))
        payload_len = draw(st.integers(0, 12))
        # tag each packet so deliveries can be matched one-to-one
        payload = [i] + draw(
            st.lists(
                st.integers(0, 255), min_size=payload_len, max_size=payload_len
            )
        )
        packets.append((src, dst, payload))
    depth = draw(st.sampled_from([1, 2, 4]))
    routing_cycles = draw(st.sampled_from([1, 3, 7]))
    return width, height, packets, depth, routing_cycles


@settings(max_examples=60, deadline=None)
@given(traffic_case())
def test_exactly_once_uncorrupted_delivery(case):
    width, height, packets, depth, routing_cycles = case
    net = HermesNetwork(
        width, height, buffer_depth=depth, routing_cycles=routing_cycles
    )
    sim = net.make_simulator()
    for src, dst, payload in packets:
        net.send(src, dst, payload)
    net.run_to_drain(sim, max_cycles=1_000_000)
    received = net.collect_received()

    # exactly once
    assert len(received) == len(packets)
    sent_tags = Counter(p[2][0] for p in packets)
    got_tags = Counter(p.payload[0] for p in received)
    assert sent_tags == got_tags
    # uncorrupted, and at the right place
    expected = {}
    for src, dst, payload in packets:
        expected.setdefault((dst, tuple(payload)), 0)
        expected[(dst, tuple(payload))] += 1
    for packet in received:
        key = (packet.target, tuple(packet.payload))
        assert expected.get(key, 0) > 0, f"unexpected delivery {key}"
        expected[key] -= 1
    # every latency was recorded and is positive
    assert len(net.stats.latencies) == len(packets)
    assert all(lat > 0 for lat in net.stats.latencies)


@settings(max_examples=25, deadline=None)
@given(traffic_case())
def test_network_drains_and_goes_idle(case):
    """After delivery the mesh holds no residual state: a further packet
    behaves exactly like on a fresh network (unloaded latency)."""
    from repro.analysis import hops, model_latency

    width, height, packets, depth, routing_cycles = case
    # the closed-form latency model assumes the paper's >=2-flit buffers
    depth = max(depth, 2)
    net = HermesNetwork(
        width, height, buffer_depth=depth, routing_cycles=routing_cycles
    )
    sim = net.make_simulator()
    for src, dst, payload in packets:
        net.send(src, dst, payload)
    net.run_to_drain(sim, max_cycles=1_000_000)
    net.collect_received()
    assert net.drained

    probe_src = (0, 0)
    probe_dst = (width - 1, height - 1)
    net.send(probe_src, probe_dst, [0xEE, 0xFF])
    net.run_to_drain(sim, max_cycles=1_000_000)
    probe = net.collect_received()[0]
    assert probe.latency == model_latency(
        hops(probe_src, probe_dst), 4, routing_cycles=routing_cycles
    )


class TestUtilisationReporting:
    def test_link_load_reaches_handshake_bound(self):
        net = HermesNetwork(2, 1, routing_cycles=1)
        sim = net.make_simulator()
        for _ in range(4):
            net.send((0, 0), (1, 0), [1] * 200)
        sim.step(1000)
        load = net.stats.link_load((0, 0), 0, 1000)  # EAST port of (0,0)
        assert 0.9 < load <= 1.0

    def test_utilisation_grid_shape(self):
        net = HermesNetwork(3, 2)
        sim = net.make_simulator()
        net.send((0, 0), (2, 1), [1] * 10)
        net.run_to_drain(sim, max_cycles=10_000)
        grid = net.stats.utilisation_grid(3, 2, sim.cycle)
        assert len(grid) == 2 and len(grid[0]) == 3
        # traffic crossed (1,0): its utilisation is nonzero
        assert grid[0][1] > 0

    def test_heatmap_renders(self):
        net = HermesNetwork(3, 3)
        sim = net.make_simulator()
        net.send((0, 0), (2, 2), [5] * 30)
        net.run_to_drain(sim, max_cycles=10_000)
        art = net.stats.heatmap(3, 3, sim.cycle)
        assert len(art.splitlines()) == 3


def _scan_busy(router):
    """The full scan ``HermesRouter.busy`` may skip for a sleeping
    router: any buffered flit, open connection or routing in progress."""
    probe = router.probe_state()
    return (
        any(probe["occupancy"])
        or any(c is not None for c in probe["in_conn"])
        or probe["ctrl"] != "idle"
    )


@st.composite
def fabric_case(draw):
    topology = draw(
        st.sampled_from(
            ["mesh:1x3", "mesh:2x2", "mesh:3x2", "torus:3x2", "torus:3x3"]
        )
    )
    n_nodes = {"1x3": 3, "2x2": 4, "3x2": 6, "3x3": 9}[topology.split(":")[1]]
    sends = draw(
        st.lists(
            st.tuples(
                st.integers(0, 120),  # injection cycle
                st.integers(0, n_nodes - 1),  # source
                st.integers(0, n_nodes - 1),  # target
                st.integers(0, 10),  # payload flits
            ),
            min_size=1,
            max_size=10,
        )
    )
    split = draw(st.integers(1, 200))
    return topology, sorted(sends), split


@settings(max_examples=25, deadline=None)
@given(fabric_case())
def test_idle_matches_full_router_scan(case):
    """In quiescent mode ``busy`` answers sleeping routers without a
    scan; at every cycle it, and ``mesh.idle``, must equal the scan.
    The run is split by a checkpoint restored into a fresh fabric.
    It lasts at least 300 cycles, and beyond them until the fabric has
    drained: ten packets injected late and converging on one node need
    more than 300 cycles to deliver."""
    import json

    topology, sends, split = case
    net = HermesNetwork(topology=topology)
    sim = net.make_simulator()
    nodes = net.mesh.addresses()
    for cycle in range(3000):
        if cycle >= 300 and net.drained:
            break
        if cycle == split:
            doc = json.loads(json.dumps(sim.snapshot()))
            net = HermesNetwork(topology=topology)
            sim = net.make_simulator()
            sim.restore(doc)
        for at, src, dst, n in sends:
            if at == cycle:
                net.send(nodes[src], nodes[dst], list(range(n)))
        sim.step(1)
        routers = net.mesh.routers.values()
        assert [r.busy for r in routers] == [_scan_busy(r) for r in routers]
        assert net.mesh.idle == (not any(_scan_busy(r) for r in routers))
    assert net.drained

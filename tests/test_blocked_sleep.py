"""Blocked routers and NIs sleep without changing a single counter.

A router sleeps while no port is marked and its control logic would
only count down or replay blocked re-arbitrations, and an NI while its
presented flit waits for an ack.  ``HermesRouter.credit`` replays the
skipped control cycles, stall spans are credited when they end, and
``Simulator.settle`` settles both at any cycle, so the quiescent kernel
must match strict lock-step on every per-key NoC counter.  Generated
traffic split at a checkpoint in any mode direction runs through the
oracle in ``tests/test_equivalence.py``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.noc.network import HermesNetwork

from .test_equivalence import Draw, assert_matches_lockstep, noc_workload


def _json(doc):
    return json.loads(json.dumps(doc))


def _build(topology, config, strict):
    net = HermesNetwork(topology=topology)
    sources = drive_traffic(net, config)
    sim = net.make_simulator(strict_lockstep=strict)
    sim.reset()
    return net, sim, sources


def _drain(net, sim, sources, config):
    sim.run_until(
        lambda: all(s.done for s in sources) and net.drained,
        max_cycles=config.duration * 200,
        label="traffic drain",
    )
    return sim.cycle, _json(net.stats.snapshot())


def _equal_byte_run(strict, depth, length):
    # Every node streams equal payload bytes into node (0, 0).  Routers
    # on the way fill their FIFOs while their outputs wait, and
    # consecutive flits present the same data, so a receiver with room
    # sees no wire toggle: only staying awake makes it take the flit.
    net = HermesNetwork(3, 3, buffer_depth=depth)
    for addr in net.interfaces:
        if addr != (0, 0):
            net.send(addr, (0, 0), [0x5A] * length)
    sim = net.make_simulator(strict_lockstep=strict)
    net.run_to_drain(sim, max_cycles=100_000)
    payloads = sorted(tuple(p.payload) for p in net.collect_received())
    return sim.cycle, _json(net.stats.snapshot()), payloads


@st.composite
def split_traffic(draw):
    # strict_lockstep of the run before and after the split: both
    # cross-mode directions, and quiescent into quiescent, which
    # resumes sleepers in the middle of their span
    return Draw(
        draw(noc_workload()),
        draw(st.sampled_from([(False, True), (True, False), (False, False)])),
        split=draw(st.integers(1, 1500)),
    )


@settings(max_examples=30, deadline=None)
@given(split_traffic())
def test_split_runs_match_lockstep_counter_for_counter(draw):
    assert_matches_lockstep(draw)


@pytest.mark.parametrize("length", [4, 12])
@pytest.mark.parametrize("depth", [2, 4, 8])
def test_equal_bytes_into_a_full_fifo_match_lockstep(depth, length):
    cycle, stats, payloads = _equal_byte_run(False, depth, length)
    assert (cycle, stats, payloads) == _equal_byte_run(True, depth, length)
    assert payloads == [(0x5A,) * length] * 8
    assert sum(v for _, v in stats["stall_cycles"]) > 0, "no FIFO filled"


def test_saturated_hotspot_skips_blocked_evals():
    """The pinned saturation hotspot run: lock-step makes 185,920 router
    and NI evals (32 units for 5,810 cycles).  Sleeping while blocked
    left 32,788 of them; sleeping through blocked re-arbitrations left
    26,965, and waking routers only for marked ports or a decision that
    can connect 25,418.  The replayed decisions count as many blocked
    routings as lock-step's."""
    config = TrafficConfig(
        rate=0.02, duration=600, hotspot_node=(0, 0), seed=5
    )
    net, sim, sources = _build("mesh:4x4", config, strict=False)
    evals = [0]
    for unit in [*net.mesh.routers.values(), *net.interfaces.values()]:

        def counted(cycle, _eval=unit.eval):
            evals[0] += 1
            return _eval(cycle)

        unit.eval = counted
    cycle, stats = _drain(net, sim, sources, config)
    assert cycle == 5810
    assert evals[0] <= 27_500, evals[0]
    _, ref = _drain(*_build("mesh:4x4", config, strict=True), config)
    assert stats["blocked_routings"] == ref["blocked_routings"]


def test_saturated_uniform_evaluates_no_router_to_drop_an_ack():
    """Uniform traffic above saturation on 8x8, 2,315 cycles.  With the
    links as wire handshakes the routers made 63,568 evals, 16,871 of
    which only dropped an ack pulse: no output marked, every marked
    input with its ack high, no grant and no decision.  Link records
    have no ack to drop, and a flit presented to a full FIFO wakes no
    router, so the evals fall below 63,568 - 16,871 = 46,697; every
    counter still equals lock-step's."""
    config = TrafficConfig(rate=0.05, duration=150, seed=1)
    net, sim, sources = _build("mesh:8x8", config, strict=False)
    evals = [0]
    for router in net.mesh.routers.values():

        def counted(cycle, _eval=router.eval):
            evals[0] += 1
            return _eval(cycle)

        router.eval = counted
    cycle, stats = _drain(net, sim, sources, config)
    assert cycle == 2315
    assert evals[0] < 63_568 - 16_871, evals[0]
    assert (cycle, stats) == _drain(*_build("mesh:8x8", config, strict=True), config)


#: an untraced hotspot, where routers sleep through blocked
#: re-arbitrations, with their credit settled at every cycle: right
#: after a blocked decision the control is idle with a request pending,
#: and the first skipped eval is a re-grant that the replay must not drop
SETTLED_HOTSPOT = Draw(
    (
        "noc",
        "mesh:4x4",
        TrafficConfig(
            rate=0.03,
            duration=300,
            payload_flits=8,
            hotspot_node=(0, 0),
            seed=3,
        ),
        False,
        2,
    ),
    observers=frozenset({"settle"}),
    settle_every=1,
)


def test_blocked_replay_settled_at_every_cycle_matches_lockstep():
    assert_matches_lockstep(SETTLED_HOTSPOT)


@pytest.fixture(scope="module")
def blocked_router():
    """A router of the settled hotspot, run in lock-step, whose control
    logic is idle with at least two requests, every one of them blocked
    (so any span is a valid replay)."""
    net, sim, _ = _build("mesh:4x4", SETTLED_HOTSPOT.workload[2], True)

    def all_blocked(router):
        requesters = router._ports[router._req]
        return (
            len(requesters) > 1
            and router.probe_state()["ctrl"] == "idle"
            and not any(router._free(p) for p in requesters)
        )

    found = []

    def at_blocked_decision():
        found[:] = [r for r in net.mesh.routers.values() if all_blocked(r)]
        return bool(found)

    sim.run_until(at_blocked_decision, max_cycles=10_000)
    return net, found[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40))
def test_replay_in_pieces_equals_replay_at_once(blocked_router, a, b):
    """``credit(a)`` then ``credit(b)`` equals ``credit(b)``."""
    net, router = blocked_router
    state, stats = router.snapshot_state(), net.stats.snapshot()
    at = router._ctrl_at  # the first control step not yet done

    def credit(*spans):
        router.restore_state(state)
        router._ctrl_at = at  # a restore leaves no control credit pending
        net.stats.restore(stats)
        for n in spans:
            router.credit(at + n)
        return router.snapshot_state(), _json(net.stats.snapshot())

    assert credit(a, a + b) == credit(a + b)
    assert credit(a, a, a + b) == credit(a + b)

"""Saturated-fabric results pinned to exact constants.

The kernel-equivalence tests compare the two kernel modes through the
same router code, so a change to arbitration order or stall accounting
would pass them unnoticed.  These runs drive a 4x4 mesh above
saturation (uniform traffic, and every node sending to one hotspot) and
pin the drain cycle, the NoC counter totals and a hash of the latency
list to constants.  Each run is checked in both kernel modes and across
a checkpoint taken mid-saturation and restored into a freshly built
network, in the other kernel mode.
"""

import hashlib
import json

import pytest

from repro.apps.workloads import TrafficConfig, TrafficSource
from repro.noc.network import HermesNetwork

UNIFORM = TrafficConfig(pattern="uniform", rate=0.05, duration=600, seed=11)
HOTSPOT = TrafficConfig(rate=0.02, duration=600, hotspot_node=(0, 0), seed=5)

#: exact results of the reference model; any change is a model change
PINNED = {
    "uniform": {
        "drain_cycle": 3410,
        "flits_sent": 18090,
        "flits_received": 18090,
        "stall_cycles": 69456,
        "blocked_routings": 1258,
        "connections_opened": 1809,
        "packets": 505,
        "latency_sha256": "0c4d7c73194b6641",
    },
    "hotspot": {
        "drain_cycle": 5810,
        "flits_sent": 7360,
        "flits_received": 7360,
        "stall_cycles": 85105,
        "blocked_routings": 4053,
        "connections_opened": 736,
        "packets": 176,
        "latency_sha256": "67fe88b0bd27d991",
    },
}

#: checkpoint cycle inside the saturated phase of each run
SPLIT = {"uniform": 450, "hotspot": 2000}

CONFIGS = {"uniform": UNIFORM, "hotspot": HOTSPOT}


def _build(strict, config):
    net = HermesNetwork(4, 4)
    sources = [
        TrafficSource(ni, 4, 4, config) for ni in net.interfaces.values()
    ]
    for source in sources:
        net.add_child(source)
    sim = net.make_simulator(strict_lockstep=strict)
    sim.reset()
    return net, sim, sources


def _run(config, strict, split=None):
    net, sim, sources = _build(strict, config)
    if split is not None:
        sim.step(split)
        doc = json.loads(json.dumps(sim.snapshot()))
        stats = json.loads(json.dumps(net.stats.snapshot()))
        net, sim, sources = _build(not strict, config)
        sim.restore(doc)
        net.stats.restore(stats)
    sim.run_until(
        lambda: all(s.done for s in sources) and net.drained,
        max_cycles=config.duration * 100,
        label="saturated drain",
    )
    st = net.stats
    return {
        "drain_cycle": sim.cycle,
        "flits_sent": sum(st.flits_sent.values()),
        "flits_received": sum(st.flits_received.values()),
        "stall_cycles": sum(st.stall_cycles.values()),
        "blocked_routings": sum(st.blocked_routings.values()),
        "connections_opened": sum(st.connections_opened.values()),
        "packets": len(st.latencies),
        "latency_sha256": hashlib.sha256(
            json.dumps(st.latencies).encode()
        ).hexdigest()[:16],
    }


@pytest.mark.parametrize("workload", ["uniform", "hotspot"])
@pytest.mark.parametrize("strict", [False, True], ids=["quiescent", "lockstep"])
def test_saturated_run_matches_pinned_counts(workload, strict):
    assert _run(CONFIGS[workload], strict) == PINNED[workload]


@pytest.mark.parametrize("workload", ["uniform", "hotspot"])
@pytest.mark.parametrize("strict", [False, True], ids=["quiescent", "lockstep"])
def test_checkpoint_split_matches_pinned_counts(workload, strict):
    result = _run(CONFIGS[workload], strict, split=SPLIT[workload])
    assert result == PINNED[workload]

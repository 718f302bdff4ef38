"""Host-speed calibration for the ledger's host-time metrics.

A shared machine's speed drifts by 10-30 % over tens of seconds, and
slows further in bursts of a second or two.  Each repetition therefore
times a fixed pure-Python reference loop in a short window right before
and right after its timed phase, and every host time of a run is
reported at the reference speed::

    t_reported = t_measured * REFERENCE_LOOP_S / loop_s

``loop_s`` is the mean of the faster half of the run's windows, each
window contributing its fastest loop: a burst inflates some windows,
rarely half of them, so ``loop_s`` follows the drift and not the
bursts.  The loop calls no code of the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

#: nominal reference-loop time; reported host times are at this speed
REFERENCE_LOOP_S = 0.0045
#: length of each calibration window
WINDOW_S = 0.2
#: iterations of one reference loop
LOOP_STEPS = 20_000


class _Node:
    __slots__ = ("value", "next", "seen")

    def __init__(self, value: int):
        self.value = value
        self.next = None
        self.seen = 0


def reference_loop() -> int:
    """Attribute loads and stores, branches, dict and list traffic: the
    mix an interpreted cycle-level simulator spends its time on."""
    nodes = [_Node(i) for i in range(64)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 7 + 3) % 64]
    table, queue, acc, node = {}, [], 0, nodes[0]
    for i in range(LOOP_STEPS):
        node.seen += 1
        v = node.value
        if v & 1:
            acc += v
        else:
            acc ^= i
        table[v & 15] = table.get(v & 15, 0) + 1
        queue.append(v)
        if len(queue) > 8:
            queue.pop(0)
        node = node.next
    return acc


def loop_seconds() -> float:
    """Fastest reference loop within ``WINDOW_S`` seconds."""
    best = float("inf")
    end = perf_counter() + WINDOW_S
    while perf_counter() < end:
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best


def scale(loops) -> float:
    """Factor from measured host time to reference-speed host time, from
    the windows' fastest loops: the mean of their faster half."""
    faster = sorted(loops)[: max(1, len(loops) // 2)]
    return REFERENCE_LOOP_S * len(faster) / sum(faster)

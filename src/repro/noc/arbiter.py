"""Round-robin arbitration, as used by the Hermes router control logic.

"A round-robin arbitration scheme is used to avoid starvation"
(paper Section 2.1).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Optional, Sequence, Tuple


class RoundRobinArbiter:
    """Grants one requester per invocation, rotating priority.

    The arbiter remembers the last granted index and starts the next scan
    just after it, so persistent requesters cannot starve the others.
    """

    def __init__(self, n_requesters: int):
        if n_requesters < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n = n_requesters
        self._last_grant = n_requesters - 1

    def turn(self, requesters: Sequence[int], k: int = 1) -> int:
        """The requester the *k*-th next grant serves, without granting.

        *requesters* are the indices of the requesting inputs in
        ascending order (not empty) and keep requesting: the scan starts
        just after the last grant and wraps around.
        """
        i = bisect_right(requesters, self._last_grant) + k - 1
        return requesters[i % len(requesters)]

    def grant_among(self, requesters: Sequence[int], k: int = 1) -> int:
        """Make *k* successive grants among *requesters* (see :meth:`turn`)
        and return the last one."""
        granted = self.turn(requesters, k)
        self._last_grant = granted
        return granted

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Return the granted requester index, or None if nothing requests.

        *requests* must have one boolean per requester.
        """
        if len(requests) != self.n:
            raise ValueError(
                f"expected {self.n} request lines, got {len(requests)}"
            )
        requesters = [i for i, r in enumerate(requests) if r]
        return self.grant_among(requesters) if requesters else None

    def reset(self) -> None:
        self._last_grant = self.n - 1


@lru_cache(maxsize=None)
def port_sets(n: int) -> Tuple[Tuple[int, ...], ...]:
    """``port_sets(n)[mask]``: the ports whose bits *mask* sets, in
    ascending order.  One table per port count, shared by every router
    with that many ports."""
    return tuple(
        tuple(p for p in range(n) if mask >> p & 1) for mask in range(1 << n)
    )


@lru_cache(maxsize=None)
def grant_table(n: int) -> Tuple[Tuple[int, ...], ...]:
    """``grant_table(n)[last][mask]``: the requester a round-robin grant
    among the request bits *mask* (not zero) serves after *last*, as
    :meth:`RoundRobinArbiter.grant_among` would.  Entry 0 of each row
    (no request) is unused."""
    sets = port_sets(n)
    return tuple(
        (-1,) + tuple(
            sets[mask][bisect_right(sets[mask], last) % len(sets[mask])]
            for mask in range(1, 1 << n)
        )
        for last in range(n)
    )

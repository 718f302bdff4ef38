"""Tests for round-robin arbitration and XY routing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc import MeshTopology, Port, RoundRobinArbiter

coord = st.tuples(st.integers(0, 15), st.integers(0, 15))

#: the largest mesh the 4-bit header nibbles allow; holds every ``coord``
MESH = MeshTopology(16, 16)


class TestRoundRobin:
    def test_single_requester_granted(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([False, True, False, False]) == 1

    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant([False, False, False]) is None

    def test_rotation_after_grant(self):
        arb = RoundRobinArbiter(3)
        all_on = [True, True, True]
        grants = [arb.grant(all_on) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_no_starvation_with_persistent_competitor(self):
        """Port 0 requesting forever cannot lock out port 2."""
        arb = RoundRobinArbiter(3)
        grants = [arb.grant([True, False, True]) for _ in range(4)]
        assert grants == [0, 2, 0, 2]

    def test_priority_resumes_after_last_grant(self):
        arb = RoundRobinArbiter(4)
        arb.grant([False, False, True, False])  # grant 2
        assert arb.grant([True, True, False, True]) == 3  # scan starts at 3

    def test_wrong_width_rejected(self):
        arb = RoundRobinArbiter(3)
        with pytest.raises(ValueError):
            arb.grant([True])

    def test_zero_requesters_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_reset_restores_initial_priority(self):
        arb = RoundRobinArbiter(3)
        arb.grant([True, True, True])
        arb.reset()
        assert arb.grant([True, True, True]) == 0

    @given(
        n=st.integers(1, 8),
        rounds=st.integers(1, 50),
        data=st.data(),
    )
    def test_fairness_property(self, n, rounds, data):
        """Any continuously requesting port is granted at least once
        every n arbitration rounds."""
        arb = RoundRobinArbiter(n)
        persistent = data.draw(st.integers(0, n - 1))
        since_grant = 0
        for _ in range(rounds):
            requests = [
                data.draw(st.booleans()) or i == persistent for i in range(n)
            ]
            granted = arb.grant(requests)
            if granted == persistent:
                since_grant = 0
            else:
                since_grant += 1
            assert since_grant <= n


class TestXYRouting:
    def test_east_when_target_right(self):
        assert MESH.route((0, 0), (2, 0)) == Port.EAST

    def test_west_when_target_left(self):
        assert MESH.route((2, 0), (0, 0)) == Port.WEST

    def test_x_corrected_before_y(self):
        assert MESH.route((0, 0), (1, 1)) == Port.EAST

    def test_north_south_after_x(self):
        assert MESH.route((1, 0), (1, 3)) == Port.NORTH
        assert MESH.route((1, 3), (1, 0)) == Port.SOUTH

    def test_local_at_destination(self):
        assert MESH.route((3, 3), (3, 3)) == Port.LOCAL

    def test_route_path_includes_endpoints(self):
        path = MESH.route_path((0, 0), (2, 1))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1)]

    def test_route_path_single_node(self):
        assert MESH.route_path((1, 1), (1, 1)) == [(1, 1)]

    @given(coord, coord)
    def test_path_length_is_manhattan_plus_one(self, src, dst):
        path = MESH.route_path(src, dst)
        manhattan = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
        assert len(path) == manhattan + 1

    @given(coord, coord)
    def test_path_is_dimension_ordered(self, src, dst):
        """X movement strictly precedes Y movement (deadlock freedom)."""
        path = MESH.route_path(src, dst)
        seen_y_move = False
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            if y0 != y1:
                seen_y_move = True
            if x0 != x1:
                assert not seen_y_move, "x move after y move breaks XY order"

    @given(coord, coord)
    def test_path_reaches_target(self, src, dst):
        assert MESH.route_path(src, dst)[-1] == dst

"""Tests for the threshold-restricted state space and its QBD partition."""

import numpy as np

from repro.core.state import imbalance, shift_state, total_jobs
from repro.core.state_space import (
    boundary_job_limit,
    boundary_states,
    build_partition,
    enumerate_restricted_states,
    first_repeating_block,
    membership_checker,
    repeating_block,
    repeating_block_size,
)
from repro.utils.combinatorics import binomial


class TestBoundaryStates:
    def test_boundary_limit(self):
        assert boundary_job_limit(3, 2) == 4
        assert boundary_job_limit(12, 3) == 33

    def test_all_boundary_states_satisfy_constraints(self):
        for n, t in [(2, 1), (3, 2), (4, 3)]:
            for state in boundary_states(n, t):
                assert len(state) == n
                assert imbalance(state) <= t
                assert total_jobs(state) <= boundary_job_limit(n, t)
                assert all(state[i] >= state[i + 1] for i in range(n - 1))

    def test_empty_state_and_full_corner_present(self):
        states = boundary_states(3, 2)
        assert (0, 0, 0) in states
        assert (2, 2, 0) in states  # the (T, ..., T, 0) corner state
        assert (3, 2, 1) not in states  # 6 jobs > (N-1)T = 4

    def test_states_with_idle_server_are_all_in_boundary(self):
        # Every state with mN = 0 has #m <= (N-1)T, hence is a boundary state.
        n, t = 4, 2
        states = set(boundary_states(n, t))
        for state in enumerate_restricted_states(n, t, boundary_job_limit(n, t) + n):
            if state[-1] == 0:
                assert state in states

    def test_sorted_by_total_then_lexicographic(self):
        states = boundary_states(3, 2)
        keys = [(total_jobs(s), s) for s in states]
        assert keys == sorted(keys)

    def test_no_duplicates(self):
        states = boundary_states(4, 2)
        assert len(states) == len(set(states))


class TestRepeatingBlocks:
    def test_block_size_formula(self):
        for n, t in [(2, 1), (3, 2), (3, 3), (6, 3), (12, 3)]:
            assert repeating_block_size(n, t) == binomial(n + t - 1, t)
            assert len(first_repeating_block(n, t)) == repeating_block_size(n, t)

    def test_block0_totals_lie_in_window(self):
        n, t = 3, 2
        limit = boundary_job_limit(n, t)
        for state in first_repeating_block(n, t):
            assert limit < total_jobs(state) <= limit + n
            assert state[-1] >= 1  # all servers busy above the boundary

    def test_blocks_are_shifts_of_block0(self):
        n, t = 3, 2
        block0 = first_repeating_block(n, t)
        block2 = repeating_block(n, t, 2)
        assert block2 == [shift_state(s, 2) for s in block0]

    def test_block_states_satisfy_imbalance_constraint(self):
        for state in first_repeating_block(4, 3):
            assert imbalance(state) <= 3

    def test_blocks_partition_totals(self):
        # Union of boundary and the first two blocks covers every restricted
        # state with at most (N-1)T + 2N jobs, with no overlaps.
        n, t = 3, 2
        limit = boundary_job_limit(n, t)
        universe = set(enumerate_restricted_states(n, t, limit + 2 * n))
        covered = set(boundary_states(n, t)) | set(first_repeating_block(n, t)) | set(repeating_block(n, t, 1))
        assert covered == universe
        assert len(covered) == len(boundary_states(n, t)) + 2 * repeating_block_size(n, t)


class TestPartition:
    def test_partition_shapes(self):
        partition = build_partition(3, 2)
        assert partition.boundary_size == len(boundary_states(3, 2))
        assert partition.block_size == repeating_block_size(3, 2)
        assert partition.boundary_array.shape == (partition.boundary_size, 3)
        assert partition.block0_array.shape == (partition.block_size, 3)
        assert partition.boundary_array.dtype == partition.block0_array.dtype == np.int64

    def test_index_maps_are_consistent(self):
        # A state's index in its block is its row in the partition's array.
        for n, t in [(2, 1), (3, 2), (4, 3), (6, 3)]:
            partition = build_partition(n, t)
            assert partition.boundary_array.tolist() == [list(s) for s in boundary_states(n, t)]
            assert partition.block0_array.tolist() == [list(s) for s in first_repeating_block(n, t)]
            assert (partition.block0_array + 2).tolist() == [list(s) for s in repeating_block(n, t, 2)]

    def test_membership_checker(self):
        contains = membership_checker(3, 2)
        assert contains((2, 1, 0))
        assert not contains((3, 1, 0))      # imbalance 3 > 2
        assert not contains((1, 2, 0))      # not ordered
        assert not contains((1, 0))         # wrong length

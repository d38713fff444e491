"""Tests for the per-server queue-length tail distribution of the bound models."""

import pytest

from repro.core.asymptotic import asymptotic_queue_length_distribution
from repro.core.bound_models import LowerBoundModel
from repro.core.exact import solve_exact_truncated
from repro.core.improved_lower import solve_improved_lower_bound
from repro.core.model import SQDModel
from repro.core.qbd_solver import SolutionMethod, solve_bound_model
from repro.core.state import State


def exact_tail_distribution(model: SQDModel, buffer_size: int, max_length: int):
    """Brute-force tail fractions from the exact truncated chain."""
    solution = solve_exact_truncated(model, buffer_size=buffer_size)
    tail = [0.0] * (max_length + 1)
    for state, probability in zip(solution.states.tolist(), solution.probabilities.tolist()):
        for k in range(max_length + 1):
            tail[k] += probability * sum(1 for v in state if v >= k) / model.num_servers
    return tail


class TestQueueLengthTailDistribution:
    def test_basic_properties(self, small_lower_blocks):
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        tail = solution.queue_length_tail_distribution(max_length=20)
        assert tail[0] == pytest.approx(1.0, abs=1e-8)
        assert all(tail[k] >= tail[k + 1] - 1e-12 for k in range(20))
        assert tail[-1] < 0.05

    def test_s1_equals_utilization(self, small_lower_blocks):
        # The fraction of busy servers equals rho for the (job-conserving)
        # lower bound model, exactly as in the original system.
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        tail = solution.queue_length_tail_distribution(max_length=5)
        assert tail[1] == pytest.approx(small_lower_blocks.model.utilization, abs=1e-8)

    def test_scalar_and_matrix_methods_agree(self, small_model):
        blocks = LowerBoundModel(small_model, 2).qbd_blocks()
        matrix_tail = solve_bound_model(blocks, method=SolutionMethod.MATRIX_GEOMETRIC).queue_length_tail_distribution(15)
        scalar_tail = solve_improved_lower_bound(small_model, 2, blocks=blocks).queue_length_tail_distribution(15)
        assert matrix_tail == pytest.approx(scalar_tail, abs=1e-9)

    def test_mean_queue_length_consistent_with_tail_sum(self, small_lower_blocks):
        # E[per-server queue length] = sum_{k>=1} P(queue >= k).
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        tail = solution.queue_length_tail_distribution(max_length=60)
        mean_per_server = sum(tail[1:])
        assert mean_per_server * small_lower_blocks.model.num_servers == pytest.approx(
            solution.mean_jobs_in_system, rel=1e-6
        )

    def test_close_to_exact_distribution_at_moderate_load(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.6)
        lower_tail = solve_improved_lower_bound(model, 3).queue_length_tail_distribution(max_length=8)
        exact_tail = exact_tail_distribution(model, buffer_size=20, max_length=8)
        for k in range(4):
            assert lower_tail[k] == pytest.approx(exact_tail[k], abs=0.02)
        # The lower bound model is stochastically smaller, so its tail is lighter.
        assert all(lower_tail[k] <= exact_tail[k] + 1e-6 for k in range(9))

    def test_heavier_than_asymptotic_tail_for_small_n(self):
        # The finite-N queue-length tail is heavier than the mean-field tail at
        # high load (the same effect Figure 9 quantifies through the delay).
        model = SQDModel(num_servers=3, d=2, utilization=0.9)
        lower_tail = solve_improved_lower_bound(model, 3).queue_length_tail_distribution(max_length=10)
        asymptotic_tail = asymptotic_queue_length_distribution(0.9, 2, max_length=10)
        assert lower_tail[4] > asymptotic_tail[4]

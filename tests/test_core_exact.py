"""Tests for the exact truncated SQ(d) oracle."""

from collections import defaultdict

import numpy as np
import pytest

from repro.core.delay import mm1_sojourn_time, mmn_sojourn_time
from repro.core.exact import exact_state_space_size, solve_exact_truncated
from repro.core.model import SQDModel
from repro.core.transitions import all_transitions
from repro.utils.validation import ValidationError


class TestExactOracle:
    def test_d1_two_servers_matches_mm1(self):
        # SQ(1) = independent M/M/1 queues, so the mean sojourn time is 1/(1-rho).
        model = SQDModel(num_servers=2, d=1, utilization=0.6)
        solution = solve_exact_truncated(model, buffer_size=60)
        assert solution.mean_delay == pytest.approx(mm1_sojourn_time(0.6), rel=1e-4)

    def test_jsq_two_servers_between_mm2_and_mm1(self):
        model = SQDModel(num_servers=2, d=2, utilization=0.7)
        solution = solve_exact_truncated(model, buffer_size=40)
        assert mmn_sojourn_time(2, 0.7) < solution.mean_delay < mm1_sojourn_time(0.7)

    def test_more_choices_reduce_exact_delay(self):
        delays = []
        for d in (1, 2, 3):
            model = SQDModel(num_servers=3, d=d, utilization=0.8)
            delays.append(solve_exact_truncated(model, buffer_size=20).mean_delay)
        assert delays[0] > delays[1] > delays[2]

    def test_distribution_normalized_and_truncation_small(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.7)
        solution = solve_exact_truncated(model, buffer_size=25)
        assert sum(solution.distribution.values()) == pytest.approx(1.0, abs=1e-9)
        assert solution.truncation_mass < 1e-6

    def test_every_state_has_positive_mass(self):
        # The truncated chain is irreducible: every ordered state with all
        # queues at most B is reachable, so none may come out empty.  The
        # smallest mass here is ~3.1e-8.
        model = SQDModel(num_servers=3, d=2, utilization=0.7)
        solution = solve_exact_truncated(model, buffer_size=8)
        assert solution.num_states == exact_state_space_size(model, 8)
        assert min(solution.distribution.values()) > 1e-9

    @pytest.mark.parametrize("utilization", [0.7, 0.9, 0.95])
    def test_one_server_is_the_mm1b_closed_form(self, utilization):
        # N=1, d=1, B=30 is M/M/1/B: pi_k = (1 - rho) rho^k / (1 - rho^(B+1)).
        rho, buffer_size = utilization, 30
        solution = solve_exact_truncated(SQDModel(1, 1, rho), buffer_size=buffer_size)
        k = np.arange(buffer_size + 1)
        expected = (1 - rho) * rho ** k / (1 - rho ** (buffer_size + 1))
        solved = np.array([solution.distribution[(level,)] for level in k])
        assert np.max(np.abs(solved - expected)) < 1e-14
        # The oracle's delay is Little's law on the waiting jobs at the
        # offered rate, plus one service time.
        waiting = float(np.sum(np.maximum(k - 1, 0) * expected))
        assert solution.mean_delay == pytest.approx(waiting / rho + 1.0, rel=1e-12)

    def test_global_balance_holds_in_every_state(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.9)
        buffer_size = 12
        pi = solve_exact_truncated(model, buffer_size=buffer_size).distribution
        inflow = defaultdict(float)
        outflow = defaultdict(float)
        for state, mass in pi.items():
            for target, rate in all_transitions(state, model):
                if target[0] <= buffer_size:  # arrivals past B are dropped
                    outflow[state] += mass * rate
                    inflow[target] += mass * rate
        worst = max(abs(inflow[state] - outflow[state]) / outflow[state] for state in pi)
        assert worst < 1e-12

    def test_truncation_mass_decreases_with_buffer(self):
        model = SQDModel(num_servers=2, d=2, utilization=0.9)
        small = solve_exact_truncated(model, buffer_size=10)
        large = solve_exact_truncated(model, buffer_size=30)
        assert large.truncation_mass < small.truncation_mass

    def test_state_space_size_formula(self):
        model = SQDModel(num_servers=2, d=2, utilization=0.5)
        # Ordered states with both queues at most B: C(B+2, 2).
        assert exact_state_space_size(model, 10) == 66

    def test_unstable_model_rejected(self):
        with pytest.raises(ValidationError):
            solve_exact_truncated(SQDModel(2, 2, 1.1), buffer_size=10)

    def test_invalid_buffer_rejected(self):
        with pytest.raises(Exception):
            solve_exact_truncated(SQDModel(2, 2, 0.5), buffer_size=0)

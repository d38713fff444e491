"""Tests for the asymptotic formula (Eq. 16) and the delay-metric helpers."""

import math

import numpy as np
import pytest

from repro.core.asymptotic import (
    asymptotic_delay,
    asymptotic_mean_queue_length,
    asymptotic_queue_length_distribution,
    power_of_d_improvement,
    relative_error_percent,
)
from repro.core.delay import (
    DelayMetrics,
    mm1_sojourn_time,
    mm1_waiting_time,
    mmn_erlang_c,
    mmn_sojourn_time,
)
from repro.utils.validation import ValidationError


class TestAsymptoticDelay:
    def test_d1_is_mm1(self):
        for rho in (0.2, 0.5, 0.9):
            assert asymptotic_delay(rho, 1) == pytest.approx(1.0 / (1.0 - rho))

    def test_d2_series_matches_direct_sum(self):
        rho = 0.9
        direct = sum(rho ** (2 ** i - 2) for i in range(1, 200))
        assert asymptotic_delay(rho, 2) == pytest.approx(direct, rel=1e-12)

    def test_zero_load_gives_pure_service_time(self):
        assert asymptotic_delay(0.0, 3) == 1.0

    def test_delay_decreases_with_d(self):
        rho = 0.95
        delays = [asymptotic_delay(rho, d) for d in (1, 2, 5, 10)]
        assert delays == sorted(delays, reverse=True)
        assert delays[-1] >= 1.0

    def test_unstable_load_rejected(self):
        with pytest.raises(ValidationError):
            asymptotic_delay(1.0, 2)

    def test_exponential_improvement_of_two_choices(self):
        # The power-of-two result: at high load the improvement factor of d=2
        # over d=1 is dramatic (here more than 5x at rho=0.95).
        assert power_of_d_improvement(0.95, 2) > 5.0

    def test_queue_length_distribution_consistency(self):
        # The mean queue length equals the tail sum of the fractions s_k, and
        # delay = mean queue length / lambda.
        rho, d = 0.9, 2
        fractions = asymptotic_queue_length_distribution(rho, d, max_length=300)
        mean_queue = sum(fractions[1:])
        assert asymptotic_mean_queue_length(rho, d) == pytest.approx(mean_queue, rel=1e-10)
        assert asymptotic_delay(rho, d) == pytest.approx(mean_queue / rho, rel=1e-10)


class TestRelativeError:
    def test_symmetric_absolute_error(self):
        assert relative_error_percent(1.1, 1.0) == pytest.approx(10.0)
        assert relative_error_percent(0.9, 1.0) == pytest.approx(10.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValidationError):
            relative_error_percent(1.0, 0.0)


class TestDistributionMetrics:
    def test_two_state_distribution(self):
        states = np.array([[2, 1, 0], [1, 0, 0]])
        metrics = DelayMetrics.from_states(states, np.array([0.5, 0.5]), total_arrival_rate=1.5)
        assert metrics.mean_jobs_in_system == pytest.approx(2.0)
        assert metrics.mean_waiting_jobs == pytest.approx(0.5)
        assert metrics.mean_busy_servers == pytest.approx(1.5)
        assert metrics.mean_waiting_time == pytest.approx(0.5 / 1.5)
        assert metrics.mean_delay == pytest.approx(0.5 / 1.5 + 1.0)

    def test_unnormalized_distribution_is_renormalized(self):
        states = np.array([[1, 0], [0, 0]])
        metrics = DelayMetrics.from_states(states, np.array([2.0, 2.0]), total_arrival_rate=1.0)
        assert metrics.mean_jobs_in_system == pytest.approx(0.5)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            DelayMetrics.from_states(np.zeros((0, 2), dtype=np.int64), np.zeros(0), total_arrival_rate=1.0)
        with pytest.raises(ValueError):
            DelayMetrics.from_states(np.array([[1, 0]]), np.array([0.0]), total_arrival_rate=1.0)


class TestClassicalQueueFormulas:
    def test_mm1_formulas(self):
        assert mm1_sojourn_time(0.5) == pytest.approx(2.0)
        assert mm1_waiting_time(0.5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            mm1_sojourn_time(1.0)

    def test_erlang_c_known_value(self):
        # M/M/2 with offered load 1 (rho = 0.5): Erlang-C = 1/3.
        assert mmn_erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_mmn_reduces_to_mm1(self):
        assert mmn_sojourn_time(1, 0.6) == pytest.approx(mm1_sojourn_time(0.6))

    def test_mmn_sojourn_below_mm1_per_server(self):
        # Pooling N servers behind one queue beats N separate M/M/1 queues.
        assert mmn_sojourn_time(4, 0.8) < mm1_sojourn_time(0.8)

    def test_erlang_c_requires_stability(self):
        with pytest.raises(ValueError):
            mmn_erlang_c(2, 2.5)

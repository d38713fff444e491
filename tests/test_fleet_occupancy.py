"""Tests for the occupancy-vector CTMC state."""

import pytest

from repro.fleet.occupancy import OccupancyState
from repro.utils.validation import ValidationError


class TestConstruction:
    def test_empty_cluster(self):
        state = OccupancyState.empty(10)
        assert state.num_servers == 10
        assert state.busy_servers == 0
        assert state.total_jobs == 0
        assert state.max_queue_length == 0

    def test_from_queue_lengths(self):
        state = OccupancyState.from_queue_lengths([0, 1, 1, 3])
        assert state.levels == [4, 3, 1, 1]
        assert state.total_jobs == 5
        assert state.num_with_exactly(0) == 1
        assert state.num_with_exactly(1) == 2
        assert state.num_with_exactly(3) == 1
        assert state.queue_length_counts() == [1, 2, 0, 1]

    def test_from_fractions_rounds_and_truncates(self):
        state = OccupancyState.from_fractions(100, [1.0, 0.9, 0.5, 0.001])
        assert state.levels == [100, 90, 50]
        assert state.total_jobs == 140

    def test_trailing_zeros_trimmed(self):
        state = OccupancyState([5, 3, 0, 0])
        assert state.levels == [5, 3]

    def test_rejects_non_monotone(self):
        with pytest.raises(ValidationError):
            OccupancyState([5, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            OccupancyState([])


class TestTransitionLaw:
    def test_arrival_probabilities_sum_to_one(self):
        state = OccupancyState.from_queue_lengths([0, 1, 2, 2, 5])
        for d in (1, 2, 3):
            for with_replacement in (False, True):
                probabilities = state.arrival_level_probabilities(d, with_replacement)
                assert probabilities.sum() == pytest.approx(1.0)
                assert (probabilities >= -1e-15).all()

    def test_without_replacement_matches_hypergeometric(self):
        # 3 of 5 servers busy: P(both polled busy) = C(3,2)/C(5,2) = 3/10.
        state = OccupancyState.from_queue_lengths([0, 0, 1, 1, 1])
        assert state.poll_ge_probability(1, d=2) == pytest.approx(0.3)
        assert state.poll_ge_probability(1, d=2, with_replacement=True) == pytest.approx(0.36)

    def test_departure_probabilities(self):
        state = OccupancyState.from_queue_lengths([0, 1, 1, 3])
        probabilities = state.departure_level_probabilities()
        assert probabilities.sum() == pytest.approx(1.0)
        assert probabilities[0] == pytest.approx(2.0 / 3.0)  # two servers at length 1

    def test_transition_rates_total(self):
        state = OccupancyState.from_queue_lengths([0, 1, 2])
        arrivals, departures = state.transition_rates(arrival_rate=3.0, service_rate=1.0, d=2)
        assert arrivals.sum() == pytest.approx(3.0)
        assert departures.sum() == pytest.approx(2.0)  # two busy servers


class TestEvents:
    def test_mean_queue_length(self):
        state = OccupancyState.from_queue_lengths([0, 2, 4])
        assert state.mean_queue_length() == pytest.approx(2.0)
        assert state.fractions()[0] == pytest.approx(1.0)

    def test_resize_grow_and_shrink(self):
        state = OccupancyState.from_queue_lengths([1, 1, 0, 0])
        assert state.resize(10) == 10
        assert state.num_servers == 10
        assert state.resize(3) == 3
        # only idle servers can leave: shrinking below busy count clamps
        assert state.resize(1) == 2
        assert state.num_servers == state.busy_servers == 2

    def test_copy_is_independent(self):
        state = OccupancyState.from_queue_lengths([1, 2])
        clone = state.copy()
        clone.resize(5)
        assert state.levels == [2, 2, 1]
        assert clone.levels == [5, 2, 1]

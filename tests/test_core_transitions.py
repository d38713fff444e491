"""Tests for the SQ(d) transition rates of Section II.A."""

import numpy as np
import pytest

from repro.core.model import SQDModel
from repro.core.state_space import build_partition
from repro.core.transitions import (
    all_transitions,
    arrival_position_probabilities,
    arrival_transitions,
    departure_transitions,
    transition_arrays,
    transition_rate_map,
)
from repro.utils.combinatorics import binomial, descending_array, descending_tuples


class TestArrivalRatesDistinctCase:
    def test_paper_formula_for_distinct_components(self):
        # State (2, 1, 0) with N=3, d=2: arrivals go to position i with rate
        # C(i-1, d-1)/C(N, d) * lambda*N for i >= d.
        model = SQDModel(num_servers=3, d=2, utilization=0.6)
        lam_n = model.total_arrival_rate
        transitions = dict(arrival_transitions((2, 1, 0), model))
        assert transitions[(2, 2, 0)] == pytest.approx(lam_n * binomial(1, 1) / binomial(3, 2))
        assert transitions[(2, 1, 1)] == pytest.approx(lam_n * binomial(2, 1) / binomial(3, 2))
        assert len(transitions) == 2  # position 1 unreachable for d = 2

    def test_rates_sum_to_total_arrival_rate(self):
        model = SQDModel(num_servers=5, d=3, utilization=0.8)
        for state in [(4, 3, 2, 1, 0), (2, 2, 2, 2, 2), (5, 5, 1, 1, 0), (1, 0, 0, 0, 0)]:
            total = sum(rate for _, rate in arrival_transitions(state, model))
            assert total == pytest.approx(model.total_arrival_rate)

    def test_d1_is_uniform_over_positions(self):
        model = SQDModel(num_servers=4, d=1, utilization=0.5)
        transitions = arrival_transitions((4, 3, 2, 1), model)
        rates = [rate for _, rate in transitions]
        assert len(rates) == 4
        assert all(rate == pytest.approx(model.total_arrival_rate / 4) for rate in rates)

    def test_jsq_always_joins_shortest(self):
        model = SQDModel(num_servers=4, d=4, utilization=0.5)
        transitions = arrival_transitions((4, 3, 2, 1), model)
        assert transitions == [((4, 3, 2, 2), pytest.approx(model.total_arrival_rate))]


class TestArrivalRatesTieCase:
    def test_tie_group_aggregate_rate(self):
        # State (1, 1, 0) with N=3, d=2: the group {1,2} receives
        # (C(2,2) - C(0,2)) / C(3,2) and the group {3} receives (C(3,2)-C(2,2))/C(3,2).
        model = SQDModel(num_servers=3, d=2, utilization=0.6)
        lam_n = model.total_arrival_rate
        transitions = dict(arrival_transitions((1, 1, 0), model))
        assert transitions[(2, 1, 0)] == pytest.approx(lam_n * 1 / 3)
        assert transitions[(1, 1, 1)] == pytest.approx(lam_n * 2 / 3)

    def test_arrival_joins_first_position_of_group(self):
        model = SQDModel(num_servers=4, d=2, utilization=0.5)
        targets = [target for target, _ in arrival_transitions((2, 2, 1, 1), model)]
        # Joining the level-1 group yields (2,2,2,1); joining the level-2 group yields (3,2,1,1).
        assert (2, 2, 2, 1) in targets
        assert (3, 2, 1, 1) in targets

    def test_all_servers_equal_single_target(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.5)
        transitions = arrival_transitions((2, 2, 2), model)
        assert transitions == [((3, 2, 2), pytest.approx(model.total_arrival_rate))]

    def test_position_probabilities_sum_to_one(self):
        model = SQDModel(num_servers=5, d=2, utilization=0.5)
        for state in [(3, 2, 2, 1, 0), (2, 2, 2, 2, 2), (4, 0, 0, 0, 0)]:
            assert sum(arrival_position_probabilities(state, model).values()) == pytest.approx(1.0)


class TestDepartures:
    def test_each_busy_server_departs_at_mu(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.5, service_rate=2.0)
        transitions = dict(departure_transitions((2, 1, 0), model))
        assert transitions[(1, 1, 0)] == pytest.approx(2.0)
        assert transitions[(2, 0, 0)] == pytest.approx(2.0)
        assert len(transitions) == 2

    def test_group_departure_rate_scales_with_group_size(self):
        model = SQDModel(num_servers=4, d=2, utilization=0.5)
        transitions = dict(departure_transitions((3, 3, 3, 0), model))
        assert transitions[(3, 3, 2, 0)] == pytest.approx(3.0)

    def test_departure_total_rate_equals_busy_servers(self):
        model = SQDModel(num_servers=5, d=2, utilization=0.5)
        for state in [(3, 2, 1, 0, 0), (1, 1, 1, 1, 1), (4, 4, 0, 0, 0)]:
            total = sum(rate for _, rate in departure_transitions(state, model))
            busy = sum(1 for v in state if v > 0)
            assert total == pytest.approx(busy * model.service_rate)

    def test_empty_system_has_no_departures(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.5)
        assert departure_transitions((0, 0, 0), model) == []

    def test_departure_leaves_last_position_of_group(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.5)
        targets = [target for target, _ in departure_transitions((2, 2, 1), model)]
        assert (2, 1, 1) in targets  # departure recorded at the last index of the level-2 group
        assert (2, 2, 0) in targets


class TestCombined:
    def test_all_transitions_targets_are_valid_ordered_states(self):
        model = SQDModel(num_servers=4, d=3, utilization=0.7)
        for state in [(3, 2, 2, 0), (1, 1, 0, 0), (5, 5, 5, 5)]:
            for target, rate in all_transitions(state, model):
                assert rate > 0
                assert all(target[i] >= target[i + 1] for i in range(3))
                assert min(target) >= 0
                assert abs(sum(target) - sum(state)) == 1

    def test_rate_map_aggregates_duplicates(self):
        model = SQDModel(num_servers=2, d=1, utilization=0.5)
        rates = transition_rate_map((1, 1), model)
        # Both single-choice arrivals land on the canonical state (2, 1).
        assert rates[(2, 1)] == pytest.approx(model.total_arrival_rate)

    def test_state_length_mismatch_rejected(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.5)
        with pytest.raises(ValueError):
            arrival_transitions((1, 0), model)
        with pytest.raises(ValueError):
            departure_transitions((1, 0), model)


def _recursive_descending_tuples(length, max_value):
    """The generator ``descending_tuples`` used to be: one Python step per tuple."""
    if length == 0:
        yield ()
        return
    for first in range(max_value, -1, -1):
        for rest in _recursive_descending_tuples(length - 1, first):
            yield (first,) + rest


def _assert_matches_per_state_law(states, model):
    """The array form lists exactly ``all_transitions`` of each row, in order, bit for bit."""
    moves = transition_arrays(states, model)
    expected = []
    for row, state in enumerate(map(tuple, states.tolist())):
        expected += [(row, target, rate, True) for target, rate in arrival_transitions(state, model)]
        expected += [(row, target, rate, False) for target, rate in departure_transitions(state, model)]
    sources, targets, rates, arrivals = zip(*expected)
    assert moves.source.tolist() == list(sources)
    assert list(map(tuple, moves.target.tolist())) == list(targets)
    assert moves.arrival.tolist() == list(arrivals)
    # Equal as float64 bit patterns, not just within a tolerance.
    assert np.array_equal(moves.rate.view(np.int64), np.array(rates).view(np.int64))


class TestArrayForm:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_per_state_law_on_the_partition(self, n):
        for threshold in range(1, 5):
            partition = build_partition(n, threshold)
            block0 = partition.block0_array
            states = np.vstack([partition.boundary_array, block0, block0 + 1, block0 + 2])
            for d in range(1, n + 1):
                _assert_matches_per_state_law(states, SQDModel(n, d, 0.7))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_state_law_on_the_exact_lattice(self, n):
        for buffer_size in range(1, 13):
            assert list(descending_tuples(n, buffer_size)) == list(_recursive_descending_tuples(n, buffer_size))
            states = descending_array(n, buffer_size)
            for d in range(1, n + 1):
                _assert_matches_per_state_law(states, SQDModel(n, d, 0.9))

    def test_coefficients(self):
        # (2, 2, 1, 0) at N=4, d=2: groups [0,1], [2,2], [3,3].  Arrivals
        # C(2,2)-C(0,2)=1, C(3,2)-C(2,2)=2, C(4,2)-C(3,2)=3; departures from
        # the two busy groups, of sizes 2 and 1.
        moves = transition_arrays(np.array([[2, 2, 1, 0]]), SQDModel(4, 2, 0.5))
        assert moves.coefficient.tolist() == [1, 2, 3, 2, 1]
        assert moves.arrival.tolist() == [True, True, True, False, False]

    def test_binomials_past_int64_stay_exact(self):
        # C(200, 100) ~ 9e58: the coefficients are exact integers and each
        # rate is rounded once, as in the per-state form.
        model = SQDModel(200, 100, 0.9)
        states = np.array([[3] * 120 + [2] * 80, [1] * 200])
        _assert_matches_per_state_law(states, model)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transition_arrays(np.zeros((2, 2), dtype=int), SQDModel(3, 2, 0.5))

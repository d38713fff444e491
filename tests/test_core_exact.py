"""Tests for the exact truncated SQ(d) oracle."""

from collections import defaultdict

import numpy as np
import pytest
from reference_delay_metrics import distribution_dict, reference_metrics, reference_truncation_mass

from repro.core.delay import mm1_sojourn_time, mmn_sojourn_time
from repro.core.exact import exact_state_space_size, solve_exact_truncated, transposed_generator
from repro.core.model import SQDModel
from repro.core.transitions import all_transitions
from repro.linalg.solvers import _clean_distribution
from repro.utils.combinatorics import descending_tuples
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
        assert solution.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert solution.truncation_mass < 1e-6

    def test_every_state_has_positive_mass(self):
        # The truncated chain is irreducible: every ordered state with all
        # queues at most B is reachable, so none may come out empty.  The
        # smallest mass here is ~3.1e-8.
        model = SQDModel(num_servers=3, d=2, utilization=0.7)
        solution = solve_exact_truncated(model, buffer_size=8)
        assert solution.num_states == exact_state_space_size(model, 8)
        assert solution.probabilities.min() > 1e-9

    @pytest.mark.parametrize("utilization", [0.7, 0.9, 0.95])
    def test_one_server_is_the_mm1b_closed_form(self, utilization):
        # N=1, d=1, B=30 is M/M/1/B: pi_k = (1 - rho) rho^k / (1 - rho^(B+1)).
        rho, buffer_size = utilization, 30
        solution = solve_exact_truncated(SQDModel(1, 1, rho), buffer_size=buffer_size)
        k = np.arange(buffer_size + 1)
        expected = (1 - rho) * rho ** k / (1 - rho ** (buffer_size + 1))
        # States run from the fullest down to the empty one.
        assert np.array_equal(solution.states[:, 0], k[::-1])
        solved = solution.probabilities[::-1]
        assert np.max(np.abs(solved - expected)) < 1e-14
        # The oracle's delay is Little's law on the waiting jobs at the
        # offered rate, plus one service time.
        waiting = float(np.sum(np.maximum(k - 1, 0) * expected))
        assert solution.mean_delay == pytest.approx(waiting / rho + 1.0, rel=1e-12)

    def test_global_balance_holds_in_every_state(self):
        model = SQDModel(num_servers=3, d=2, utilization=0.9)
        buffer_size = 12
        solution = solve_exact_truncated(model, buffer_size=buffer_size)
        pi = distribution_dict(solution.states, solution.probabilities)
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


def reference_generator(model, buffer_size):
    """The per-state COO loop the exact oracle used to assemble its generator with."""
    from scipy.sparse import csc_matrix

    states = list(descending_tuples(model.num_servers, buffer_size))
    index = {state: i for i, state in enumerate(states)}
    rows, cols, rates = [], [], []
    for source, state in enumerate(states):
        for target, rate in all_transitions(state, model):
            if target[0] > buffer_size:
                continue
            rows.append(index[target])
            cols.append(source)
            rates.append(rate)
    n = len(states)
    rates.extend((-np.bincount(cols, weights=rates, minlength=n)).tolist())
    rows.extend(range(n))
    cols.extend(range(n))
    return states, csc_matrix((rates, (rows, cols)), shape=(n, n))


class TestAssemblyIsTheLoopBitwise:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_distribution_and_delay(self, n):
        from scipy.sparse.linalg import spsolve

        for d in range(1, n + 1):
            for buffer_size in (1, 5, 12):
                for utilization in (0.5, 0.9):
                    model = SQDModel(n, d, utilization)
                    states, matrix = reference_generator(model, buffer_size)
                    got_states, got = transposed_generator(model, buffer_size)
                    assert list(map(tuple, got_states.tolist())) == states
                    assert np.array_equal(got.indptr, matrix.indptr)
                    assert np.array_equal(got.indices, matrix.indices)
                    assert np.array_equal(got.data.view(np.int64), matrix.data.view(np.int64))
                    pi = np.ones(len(states))
                    pi[:-1] = spsolve(
                        matrix[:-1, :-1], -matrix[:-1, -1].toarray().ravel(), permc_spec="MMD_AT_PLUS_A"
                    )
                    expected = _clean_distribution(pi)
                    delay = reference_metrics(dict(zip(states, expected.tolist())), model.total_arrival_rate)
                    solution = solve_exact_truncated(model, buffer_size=buffer_size)
                    assert solution.states.dtype == np.int64
                    assert solution.states.tobytes() == np.array(states, dtype=np.int64).tobytes()
                    assert solution.probabilities.tobytes() == expected.tobytes()
                    assert solution.mean_delay.hex() == delay.mean_sojourn_time.hex()


METRIC_FIELDS = ("mean_jobs_in_system", "mean_waiting_jobs", "mean_busy_servers", "mean_waiting_time", "mean_sojourn_time")


class TestFoldsAreTheLoopBitwise:
    """The array folds give the per-state dict loop's bits, on any Python."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_metric_and_the_truncation_mass(self, n):
        for d in range(1, n + 1):
            for buffer_size in (1, 5, 12, 20, 40):
                for utilization in (0.3, 0.5, 0.9, 0.95):
                    model = SQDModel(n, d, utilization)
                    solution = solve_exact_truncated(model, buffer_size=buffer_size)
                    case = (n, d, buffer_size, utilization)
                    assert solution.states.shape == (exact_state_space_size(model, buffer_size), n), case
                    assert not solution.states[-1].any(), case
                    distribution = distribution_dict(solution.states, solution.probabilities)
                    expected = reference_metrics(distribution, model.total_arrival_rate, model.service_rate)
                    for name in METRIC_FIELDS:
                        assert getattr(solution.metrics, name).hex() == getattr(expected, name).hex(), (case, name)
                    assert solution.truncation_mass.hex() == (
                        reference_truncation_mass(distribution, buffer_size).hex()
                    ), case

    def test_solutions_compare_by_their_numbers(self):
        # The state and probability arrays stay out of __eq__, which could
        # not reduce an elementwise comparison to one bool.
        model = SQDModel(2, 2, 0.7)
        assert solve_exact_truncated(model, buffer_size=6) == solve_exact_truncated(model, buffer_size=6)

"""Tests for repro.linalg.solvers."""

import numpy as np
import pytest

from repro.linalg.solvers import (
    StationarySolveError,
    _clean_distribution,
    solve_constrained_left_nullspace,
    solve_normalized_transposed,
    stationary_from_generator,
)
from reference_qbd_solver import dense_constrained_left_nullspace


def two_state_generator(a: float, b: float) -> np.ndarray:
    return np.array([[-a, a], [b, -b]])


class TestConstrainedNullspace:
    def test_normalization_with_weights(self):
        Q = two_state_generator(1.0, 1.0)
        weights = np.array([2.0, 2.0])
        x = solve_constrained_left_nullspace(Q, weights)
        assert np.isclose(x @ weights, 1.0)
        assert np.allclose(x @ Q, 0.0, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_constrained_left_nullspace(np.eye(2), np.ones(3))


class TestNormalizedTransposed:
    """The in-place solve against the one that copied the balance matrix twice."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_copying_solve_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        rates = rng.random((9, 9))
        np.fill_diagonal(rates, 0.0)
        Q = rates - np.diag(rates.sum(axis=1))
        weights = 1.0 + rng.random(9)
        expected = dense_constrained_left_nullspace(Q, weights)
        assert np.array_equal(solve_constrained_left_nullspace(Q, weights), expected)
        system = Q.T.copy()
        solution, residual = solve_normalized_transposed(system, weights)
        assert np.array_equal(solution, expected)
        assert residual == pytest.approx(np.linalg.norm(expected @ Q), abs=1e-15)
        # The caller's system now holds the normalization in its last row.
        assert np.array_equal(system[-1], weights)

    def test_falls_back_to_least_squares(self):
        # The last state is isolated, so its balance equation (0 = 0) is the
        # redundant one only in name: the square system is singular.
        Q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        weights = np.ones(3)
        solution, residual = solve_normalized_transposed(Q.T.copy(), weights)
        np.testing.assert_allclose(solution, dense_constrained_left_nullspace(Q, weights), rtol=0, atol=1e-15)
        np.testing.assert_allclose(solution, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)
        assert residual < 1e-15


class TestStationaryFromGenerator:
    def test_two_state_birth_death(self):
        Q = two_state_generator(2.0, 3.0)
        pi = stationary_from_generator(Q)
        assert np.allclose(pi, [3 / 5, 2 / 5])

    def test_mm1_truncated_generator_is_geometric(self):
        lam, mu, size = 0.6, 1.0, 30
        Q = np.zeros((size, size))
        for i in range(size - 1):
            Q[i, i + 1] = lam
        for i in range(1, size):
            Q[i, i - 1] = mu
        np.fill_diagonal(Q, -Q.sum(axis=1))
        pi = stationary_from_generator(Q)
        rho = lam / mu
        expected = np.array([rho ** k for k in range(size)])
        expected /= expected.sum()
        assert np.allclose(pi, expected, atol=1e-8)

    def test_rejects_nonzero_row_sums(self):
        Q = np.array([[-1.0, 0.5], [1.0, -1.0]])
        with pytest.raises(ValueError):
            stationary_from_generator(Q)

    def test_rejects_negative_off_diagonal(self):
        Q = np.array([[1.0, -1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):
            stationary_from_generator(Q)

    def test_distribution_sums_to_one_and_is_nonnegative(self):
        rng = np.random.default_rng(3)
        n = 8
        rates = rng.random((n, n))
        np.fill_diagonal(rates, 0.0)
        Q = rates - np.diag(rates.sum(axis=1))
        pi = stationary_from_generator(Q)
        assert np.isclose(pi.sum(), 1.0)
        assert np.all(pi >= 0)
        assert np.allclose(pi @ Q, 0.0, atol=1e-9)


class TestCleanDistribution:
    """The check every stationary vector passes, the exact oracle's included."""

    def test_round_off_negatives_clipped_and_normalized(self):
        pi = _clean_distribution(np.array([2.0, -1e-15, 2.0]))
        assert np.array_equal(pi, [0.5, 0.0, 0.5])

    @pytest.mark.parametrize(
        "vector", [[1.0, -0.5, 1.0], [0.0, 0.0], [1.0, np.nan]], ids=["negative", "zero", "nan"]
    )
    def test_broken_solutions_rejected(self, vector):
        with pytest.raises(StationarySolveError):
            _clean_distribution(np.array(vector))

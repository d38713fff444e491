"""Tests for repro.linalg.blocks."""

import numpy as np
import pytest

from repro.linalg.blocks import geometric_block_sum, solve_qbd_boundary, spectral_radius
from repro.linalg.logarithmic_reduction import QBDSolveError


class TestSpectralRadius:
    def test_diagonal_matrix(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_empty_matrix(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_rotation_matrix(self):
        theta = 0.3
        rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert spectral_radius(rotation) == pytest.approx(1.0)


class TestGeometricBlockSum:
    def test_matches_series(self):
        R = np.array([[0.2, 0.1], [0.0, 0.3]])
        closed_form = geometric_block_sum(R)
        series = sum(np.linalg.matrix_power(R, k) for k in range(200))
        assert np.allclose(closed_form, series, atol=1e-10)

    def test_applies_to_vector(self):
        R = 0.5 * np.eye(2)
        result = geometric_block_sum(R, np.ones(2))
        assert np.allclose(result, 2.0)

    def test_divergent_radius_rejected(self):
        with pytest.raises(ValueError):
            geometric_block_sum(np.eye(2))


def mm1_boundary(arrival_rate, service_rate, W, tail_weights):
    """M/M/1 as a QBD: the empty queue is the boundary, one job is level 0."""
    lam, mu = arrival_rate, service_rate
    return solve_qbd_boundary(
        np.array([[-lam]]), np.array([[lam]]), np.array([[mu]]),
        np.array([[-(lam + mu)]]), np.array([[mu]]), np.array([[W]]), np.array([tail_weights]),
    )


class TestQBDBoundary:
    def test_mm1_is_geometric(self):
        rho = 0.6
        pi_b, pi_0, pi_1, residual = mm1_boundary(rho, 1.0, rho, 1.0 / (1.0 - rho))
        expected = (1.0 - rho) * rho ** np.arange(3)
        np.testing.assert_allclose([pi_b[0], pi_0[0], pi_1[0]], expected, rtol=1e-14)
        assert residual < 1e-14

    def test_negative_probabilities_raise(self):
        # A W with a negative entry sends level 1 below zero.
        with pytest.raises(QBDSolveError, match="negative probabilities"):
            mm1_boundary(0.6, 1.0, -0.5, 1.0)

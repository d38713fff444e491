"""Tests for repro.linalg.blocks."""

import numpy as np
import pytest

from repro.core.bound_models import UpperBoundModel
from repro.core.model import SQDModel
from repro.linalg.blocks import geometric_block_sum, solve_qbd_boundary, spectral_radius
from repro.linalg.logarithmic_reduction import QBDSolveError, rate_matrix_from_G, solve_G_logarithmic_reduction
from reference_qbd_solver import dense_geometric_block_sum, dense_qbd_boundary


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

    def test_from_the_nonzero_rows_of_R(self):
        # Two zero rows: (I - R)^-1 = I + E (I - R[r, r])^-1 R[r, :].
        R = np.array([[0.2, 0.1, 0.3, 0.0], [0.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.4, 0.2], [0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(geometric_block_sum(R), dense_geometric_block_sum(R), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(geometric_block_sum(np.zeros((3, 3))), np.eye(3))

    def test_divergent_radius_rejected(self):
        with pytest.raises(ValueError):
            geometric_block_sum(np.eye(2))

    @pytest.mark.parametrize("seed", range(6))
    def test_guard_raises_where_the_dense_one_does(self, seed):
        # Nonnegative R with zero rows, scaled to spectral radii on both
        # sides of 1; the guard reads R[r, r], the dense one all of R.
        rng = np.random.default_rng(seed)
        m = 12
        base = rng.random((m, m)) * (rng.random((m, 1)) < 0.5)
        base[0] += 0.1
        radius = spectral_radius(base)
        for target in (0.1, 0.5, 0.9, 0.99, 0.999999, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.2, 3.0):
            R = base * (target / radius)
            try:
                expected = dense_geometric_block_sum(R)
            except ValueError:
                with pytest.raises(ValueError, match="diverges"):
                    geometric_block_sum(R)
                continue
            # Both inverses lose about log10 1 / (1 - radius) digits, and the
            # dense one leaves round-off in the rows that are exactly zero here.
            tolerance = 1e-12 / (1.0 - target) * np.abs(expected).max()
            np.testing.assert_allclose(geometric_block_sum(R), expected, rtol=0, atol=tolerance)

    def test_guard_reads_the_radius_of_the_row_block(self):
        # A nilpotent R (radius 0) and a permutation (radius 1) with a zero row.
        np.testing.assert_array_equal(geometric_block_sum(np.array([[0.0, 1.0], [0.0, 0.0]])),
                                      [[1.0, 1.0], [0.0, 1.0]])
        cycle = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="diverges"):
            geometric_block_sum(cycle)


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

    @pytest.mark.parametrize("num_servers, threshold", [(3, 2), (5, 3), (8, 3)])
    def test_matches_the_copying_solve(self, num_servers, threshold):
        # An upper model's W = R vanishes outside A0's nonzero rows, the only
        # rows on which W A2 and W t are formed; the copying solve forms
        # them on all of W and builds the balance matrix before transposing.
        blocks = UpperBoundModel(SQDModel(num_servers, 2, 0.7), threshold).qbd_blocks()
        A0, A1, A2 = blocks.A0, blocks.A1, blocks.A2
        R = rate_matrix_from_G(A0, A1, solve_G_logarithmic_reduction(A0, A1, A2).G)
        assert not R.any(axis=1).all()
        args = (blocks.R00, blocks.R01, blocks.R10, A1, A2, R, geometric_block_sum(R).sum(axis=1))
        got, expected = solve_qbd_boundary(*args), dense_qbd_boundary(*args)
        for part, reference in zip(got[:3], expected[:3]):
            np.testing.assert_allclose(part, reference, rtol=0, atol=1e-15)
        assert got[3] < 1e-14 and expected[3] < 1e-14

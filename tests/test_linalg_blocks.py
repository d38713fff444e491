"""Tests for repro.linalg.blocks."""

import numpy as np
import pytest

from repro.linalg.blocks import geometric_block_sum, spectral_radius


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

"""Tests for the QBD matrix-geometric machinery (Latouche–Ramaswami)."""

import numpy as np
import pytest
from reference_qbd_solver import dense_rate_matrix, dense_solve_G

from repro.linalg.logarithmic_reduction import (
    QBDSolveError,
    is_qbd_positive_recurrent,
    qbd_drift,
    qbd_residual,
    rate_matrix_from_G,
    rate_matrix_residual,
    solve_G_functional_iteration,
    solve_G_logarithmic_reduction,
)
from repro.markov.arrival_processes import MarkovianArrivalProcess
from repro.markov.service_distributions import PhaseTypeService


def mm1_blocks(lam: float, mu: float):
    """The scalar (1x1 block) QBD of an M/M/1 queue."""
    A0 = np.array([[lam]])
    A1 = np.array([[-(lam + mu)]])
    A2 = np.array([[mu]])
    return A0, A1, A2


def mmc_like_blocks():
    """A small 2-phase QBD with a known-stable structure (MAP/M/1-like)."""
    D0 = np.array([[-3.0, 1.0], [0.5, -2.0]])
    D1 = np.array([[1.5, 0.5], [0.5, 1.0]])
    mu = 4.0
    A0 = D1
    A1 = D0 - mu * np.eye(2)
    A2 = mu * np.eye(2)
    return A0, A1, A2


class TestMM1Case:
    def test_G_is_one_for_stable_mm1(self):
        A0, A1, A2 = mm1_blocks(0.5, 1.0)
        result = solve_G_logarithmic_reduction(A0, A1, A2)
        assert result.G.shape == (1, 1)
        assert result.G[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_R_equals_rho_for_mm1(self):
        lam, mu = 0.7, 1.0
        A0, A1, A2 = mm1_blocks(lam, mu)
        result = solve_G_logarithmic_reduction(A0, A1, A2)
        R = rate_matrix_from_G(A0, A1, result.G)
        assert R[0, 0] == pytest.approx(lam / mu, abs=1e-10)

    def test_drift_sign_matches_stability(self):
        stable = mm1_blocks(0.5, 1.0)
        unstable = mm1_blocks(1.5, 1.0)
        assert qbd_drift(*stable) < 0
        assert qbd_drift(*unstable) > 0
        assert is_qbd_positive_recurrent(*stable)
        assert not is_qbd_positive_recurrent(*unstable)


class TestPhaseTypeCase:
    def test_logarithmic_reduction_solves_fixed_point(self):
        A0, A1, A2 = mmc_like_blocks()
        result = solve_G_logarithmic_reduction(A0, A1, A2)
        assert qbd_residual(A0, A1, A2, result.G) < 1e-9
        # G of a positive recurrent QBD is stochastic.
        assert np.allclose(result.G.sum(axis=1), 1.0, atol=1e-8)

    def test_agrees_with_functional_iteration(self):
        A0, A1, A2 = mmc_like_blocks()
        log_red = solve_G_logarithmic_reduction(A0, A1, A2)
        iterate = solve_G_functional_iteration(A0, A1, A2, tolerance=1e-13)
        assert np.allclose(log_red.G, iterate.G, atol=1e-8)

    def test_logarithmic_reduction_converges_quickly(self):
        A0, A1, A2 = mmc_like_blocks()
        result = solve_G_logarithmic_reduction(A0, A1, A2)
        assert result.iterations <= 10  # the paper reports k <= 6 for its configurations

    def test_rate_matrix_satisfies_its_equation(self):
        A0, A1, A2 = mmc_like_blocks()
        result = solve_G_logarithmic_reduction(A0, A1, A2)
        R = rate_matrix_from_G(A0, A1, result.G)
        assert rate_matrix_residual(A0, A1, A2, R) < 1e-9
        assert np.all(R >= 0)
        assert np.max(np.abs(np.linalg.eigvals(R))) < 1.0


class TestValidation:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            solve_G_logarithmic_reduction(np.eye(2), np.eye(3), np.eye(2))

    def test_negative_rate_blocks_rejected(self):
        A0 = np.array([[-0.5]])
        A1 = np.array([[-1.0]])
        A2 = np.array([[1.0]])
        with pytest.raises(ValueError):
            solve_G_logarithmic_reduction(A0, A1, A2)

    def test_positive_row_sum_rejected(self):
        A0 = np.array([[1.0]])
        A1 = np.array([[-1.0]])
        A2 = np.array([[1.0]])  # rows of A0+A1+A2 sum to +1: not a generator slice
        with pytest.raises(ValueError):
            solve_G_logarithmic_reduction(A0, A1, A2)


def random_qbd(rng, m, sparse):
    """Random positive recurrent blocks: down rates outweigh up rates in every phase.

    ``sparse`` zeroes random rows and columns of ``A0`` and ``A2``, as the
    bound models' edge layers do; otherwise every entry is positive.
    """
    A0 = rng.random((m, m))
    A2 = 2.0 + rng.random((m, m))
    if sparse:
        A0 *= rng.random((m, 1)) < 0.5
        A0 *= rng.random((1, m)) < 0.5
        A2 *= rng.random((1, m)) < 0.6
        A2[:, 0] += 2.0 * m
    within = rng.random((m, m))
    np.fill_diagonal(within, 0.0)
    A1 = within - np.diag((A0 + within + A2).sum(axis=1))
    return A0, A1, A2


def map_ph_1_blocks(arrivals, service):
    """The MAP/PH/1 level blocks of :func:`repro.markov.map_ph_queue.solve_map_ph_1`."""
    D0, D1 = arrivals.D0, arrivals.D1
    beta, S = service.initial_distribution, service.subgenerator
    identity_a, identity_s = np.eye(D0.shape[0]), np.eye(S.shape[0])
    A0 = np.kron(D1, identity_s)
    A1 = np.kron(D0, identity_s) + np.kron(identity_a, S)
    A2 = np.kron(identity_a, np.outer(-S @ np.ones(S.shape[0]), beta))
    return A0, A1, A2


class TestAgainstTheDenseReduction:
    """The reduction on the reached columns against the one on m x m matrices."""

    @staticmethod
    def assert_same_solution(A0, A1, A2):
        assert is_qbd_positive_recurrent(A0, A1, A2)
        got, expected = solve_G_logarithmic_reduction(A0, A1, A2), dense_solve_G(A0, A1, A2)
        assert got.iterations == expected.iterations
        np.testing.assert_allclose(got.G, expected.G, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            rate_matrix_from_G(A0, A1, got.G), dense_rate_matrix(A0, A1, expected.G), rtol=0, atol=1e-12
        )
        assert got.residual == pytest.approx(qbd_residual(A0, A1, A2, got.G), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_same_solution(*random_qbd(rng, int(rng.integers(1, 15)), sparse=seed % 2 == 1))

    @pytest.mark.parametrize("service", [
        PhaseTypeService.from_exponential(1.0),
        PhaseTypeService.from_erlang(3, 1.0),
        PhaseTypeService.from_hyperexponential([0.3, 0.7], [0.6, 2.0]),
    ], ids=["M", "E3", "H2"])
    @pytest.mark.parametrize("arrivals", [
        MarkovianArrivalProcess(np.array([[-0.7]]), np.array([[0.7]])),
        MarkovianArrivalProcess.mmpp2(1.5, 0.2, 0.3, 0.4),
        MarkovianArrivalProcess.mmpp2(3.0, 0.4, 0.05, 0.04).rescaled(0.8),
    ], ids=["poisson", "mmpp2", "bursty-mmpp2"])
    def test_map_ph_1_blocks(self, arrivals, service):
        self.assert_same_solution(*map_ph_1_blocks(arrivals, service))

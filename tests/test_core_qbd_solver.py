"""Tests for the matrix-geometric bound solver (Theorem 1)."""

import numpy as np
import pytest
from reference_qbd_solver import dense_solve_bound_model, dense_solve_G, reference_solve_bound_model

import repro
from repro import ExperimentSpec
from repro.core.analysis import analyze_sqd
from repro.core.bound_models import LowerBoundModel, UpperBoundModel
from repro.core.model import SQDModel
from repro.core.qbd_solver import SolutionMethod, UnstableBoundModelError, solve_bound_model
from repro.core.solver_cache import clear_solver_cache, solver_cache
from repro.core.state_space import repeating_block_size
from repro.linalg.blocks import spectral_radius
from repro.linalg.logarithmic_reduction import is_qbd_positive_recurrent, solve_G_logarithmic_reduction


class TestLowerBoundSolution:
    def test_probability_mass_is_one(self, small_lower_blocks):
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        assert solution.total_probability_mass() == pytest.approx(1.0, abs=1e-8)
        assert np.all(solution.pi_boundary >= 0)
        assert np.all(solution.pi_block0 >= 0)
        assert np.all(solution.pi_block1 >= 0)

    def test_balance_residual_is_small(self, small_lower_blocks):
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        assert solution.balance_residual < 1e-8
        assert solution.g_residual < 1e-8
        assert solution.r_residual < 1e-8

    def test_g_converges_in_few_iterations(self, small_lower_blocks):
        # The paper reports the logarithmic-reduction algorithm needs k <= 6
        # iterations for its configurations.
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        assert solution.g_iterations <= 8

    def test_rate_matrix_spectral_radius_is_rho_to_the_n(self, small_lower_blocks):
        # Theorem 3 in disguise: the tail of the lower bound model decays by
        # rho^N per block of N jobs.
        model = small_lower_blocks.model
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        radius = spectral_radius(solution.rate_matrix)
        assert radius == pytest.approx(model.utilization ** model.num_servers, abs=1e-8)

    def test_scalar_and_matrix_methods_agree(self, small_lower_blocks):
        matrix_solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        scalar_solution = solve_bound_model(
            small_lower_blocks,
            method=SolutionMethod.SCALAR_GEOMETRIC,
            decay_factor=small_lower_blocks.model.utilization ** 3,
        )
        assert scalar_solution.mean_delay == pytest.approx(matrix_solution.mean_delay, abs=1e-8)
        assert scalar_solution.mean_jobs_in_system == pytest.approx(matrix_solution.mean_jobs_in_system, abs=1e-8)

    def test_delay_decomposition_consistent(self, small_lower_blocks):
        solution = solve_bound_model(small_lower_blocks)
        model = small_lower_blocks.model
        assert solution.mean_sojourn_time == pytest.approx(solution.mean_waiting_time + 1.0 / model.service_rate)
        assert solution.mean_waiting_time == pytest.approx(
            solution.mean_waiting_jobs / model.total_arrival_rate
        )
        assert solution.mean_delay == solution.mean_sojourn_time

    def test_boundary_probabilities_keyed_by_state(self, small_lower_blocks):
        # pi_boundary is aligned with the partition's boundary rows, whose
        # first is the empty state.
        solution = solve_bound_model(small_lower_blocks)
        boundary = small_lower_blocks.partition.boundary_array
        assert solution.pi_boundary.shape == (len(boundary),)
        assert boundary[0].tolist() == [0, 0, 0]
        assert solution.pi_boundary[0] > 0
        assert np.all(solution.pi_boundary >= 0)

    def test_block_probabilities_decay_geometrically(self, small_lower_blocks):
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        R = solution.rate_matrix
        block1 = solution.pi_block1.sum()
        block3 = (solution.pi_block1 @ R @ R).sum()
        rho_n = small_lower_blocks.model.utilization ** 3
        assert block3 == pytest.approx(block1 * rho_n ** 2, rel=1e-6)

    def test_low_utilization_delay_close_to_service_time(self):
        model = SQDModel(3, 2, 0.05)
        solution = solve_bound_model(LowerBoundModel(model, 2).qbd_blocks())
        assert solution.mean_delay == pytest.approx(1.0, abs=0.05)

    def test_delay_increases_with_utilization(self):
        delays = []
        for utilization in (0.3, 0.6, 0.9):
            model = SQDModel(3, 2, utilization)
            delays.append(solve_bound_model(LowerBoundModel(model, 2).qbd_blocks()).mean_delay)
        assert delays[0] < delays[1] < delays[2]


class TestUpperBoundSolution:
    def test_upper_bound_above_lower_bound(self, small_lower_blocks, small_upper_blocks):
        lower = solve_bound_model(small_lower_blocks)
        upper = solve_bound_model(small_upper_blocks)
        assert upper.mean_delay > lower.mean_delay

    def test_upper_bound_tightens_with_threshold(self):
        model = SQDModel(3, 2, 0.7)
        upper_t2 = solve_bound_model(UpperBoundModel(model, 2).qbd_blocks()).mean_delay
        upper_t3 = solve_bound_model(UpperBoundModel(model, 3).qbd_blocks()).mean_delay
        upper_t4 = solve_bound_model(UpperBoundModel(model, 4).qbd_blocks()).mean_delay
        assert upper_t2 > upper_t3 > upper_t4

    def test_unstable_upper_bound_raises(self):
        # With T=1 the blocking rule wastes enough capacity that the drift
        # condition fails well below utilization 1.
        model = SQDModel(3, 2, 0.9)
        blocks = UpperBoundModel(model, 1).qbd_blocks()
        assert not is_qbd_positive_recurrent(blocks.A0, blocks.A1, blocks.A2)
        with pytest.raises(UnstableBoundModelError):
            solve_bound_model(blocks)

    def test_stability_helper_matches_drift_sign(self, small_upper_blocks):
        blocks = small_upper_blocks
        assert is_qbd_positive_recurrent(blocks.A0, blocks.A1, blocks.A2) == (
            solve_bound_model(small_upper_blocks).drift < 0
        )

    def test_scalar_method_rejected_for_upper_bound(self, small_upper_blocks):
        with pytest.raises(ValueError):
            solve_bound_model(small_upper_blocks, method=SolutionMethod.SCALAR_GEOMETRIC)


class TestSolutionIntrospection:
    def test_mean_jobs_consistent_with_distribution_head(self, small_lower_blocks):
        # Recompute the mean number of jobs by brute-force summation over many
        # blocks and compare with the closed-form geometric sums.
        solution = solve_bound_model(small_lower_blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        partition, num_servers = small_lower_blocks.partition, small_lower_blocks.model.num_servers
        block0_totals = partition.block0_array.sum(axis=1)
        total = solution.pi_boundary @ partition.boundary_array.sum(axis=1) + solution.pi_block0 @ block0_totals
        vector = solution.pi_block1
        for q in range(1, 60):
            total += vector @ (block0_totals + q * num_servers)
            vector = vector @ solution.rate_matrix
        assert total == pytest.approx(solution.mean_jobs_in_system, rel=1e-6)

    def test_method_recorded_on_solution(self, small_lower_blocks):
        solution = solve_bound_model(small_lower_blocks, method="scalar-geometric", decay_factor=0.7 ** 3)
        assert solution.method is SolutionMethod.SCALAR_GEOMETRIC
        assert solution.decay_factor == pytest.approx(0.343)
        assert solution.rate_matrix is None


SCALAR = SolutionMethod.SCALAR_GEOMETRIC
MATRIX = SolutionMethod.MATRIX_GEOMETRIC


def solve_or_none(solve, blocks, method):
    try:
        return solve(blocks, method)
    except UnstableBoundModelError:
        return None


class TestTwoUnknownBoundarySystem:
    """The (pi_b, pi_0) solve against the three-block one it replaced."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_agrees_with_the_three_block_solve(self, n):
        for d in sorted({1, 2, 3, n} & set(range(1, n + 1))):
            for threshold in range(1, 5):
                if repeating_block_size(n, threshold) > 300:
                    continue
                for utilization in (0.1, 0.5, 0.8, 0.9, 0.95, 0.99):
                    model = SQDModel(n, d, utilization)
                    for bound, method in ((LowerBoundModel, SCALAR), (UpperBoundModel, MATRIX)):
                        blocks = bound(model, threshold).qbd_blocks()
                        case = (n, d, threshold, utilization, bound.__name__)
                        got = solve_or_none(solve_bound_model, blocks, method)
                        expected = solve_or_none(reference_solve_bound_model, blocks, method)
                        assert (got is None) == (expected is None), case
                        if got is None:
                            continue
                        assert got.mean_delay == pytest.approx(expected.mean_delay, rel=1e-12, abs=0), case
                        assert got.total_probability_mass() == pytest.approx(
                            expected.total_probability_mass(), rel=1e-12, abs=0
                        ), case
                        # Relative to the total mass 1: entries far out in
                        # the tail sit below the round-off of either solve.
                        np.testing.assert_allclose(
                            got.queue_length_tail_distribution(),
                            expected.queue_length_tail_distribution(),
                            rtol=1e-12, atol=1e-12, err_msg=str(case),
                        )
                        for name in ("pi_boundary", "pi_block0", "pi_block1"):
                            np.testing.assert_allclose(
                                getattr(got, name), getattr(expected, name), rtol=0, atol=1e-12, err_msg=str(case)
                            )

    CASES = [(3, 2, 2, 0.7), (4, 1, 3, 0.9), (5, 3, 2, 0.5), (6, 2, 3, 0.95), (8, 8, 3, 0.8)]

    @pytest.mark.parametrize("n,d,threshold,utilization", CASES)
    def test_block1_is_block0_times_r(self, n, d, threshold, utilization):
        for bound in (LowerBoundModel, UpperBoundModel):
            solution = solve_or_none(solve_bound_model, bound(SQDModel(n, d, utilization), threshold).qbd_blocks(), MATRIX)
            if solution is None:
                continue
            blocks, R = solution.blocks, solution.rate_matrix
            np.testing.assert_allclose(solution.pi_block1, solution.pi_block0 @ R, rtol=0, atol=1e-12)
            # ... which is the balance of B1 that the solve no longer writes down.
            balance = solution.pi_block0 @ blocks.A0 + solution.pi_block1 @ (blocks.A1 + R @ blocks.A2)
            assert np.abs(balance).max() <= 1e-12 * np.abs(blocks.A1).max()
            tail_weights = np.linalg.solve(np.eye(blocks.block_size) - R, np.ones(blocks.block_size))
            total = solution.pi_boundary.sum() + solution.pi_block0.sum() + solution.pi_block1 @ tail_weights
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,d,threshold,utilization", CASES)
    def test_scalar_block1_balance(self, n, d, threshold, utilization):
        solution = solve_bound_model(LowerBoundModel(SQDModel(n, d, utilization), threshold).qbd_blocks(), SCALAR)
        blocks, sigma_n = solution.blocks, solution.decay_factor
        assert sigma_n == utilization ** n
        np.testing.assert_allclose(
            solution.pi_block1 @ (blocks.A1 + sigma_n * blocks.A2),
            -solution.pi_block0 @ blocks.A0,
            rtol=0, atol=1e-12 * np.abs(blocks.A1).max(),
        )
        total = solution.pi_boundary.sum() + solution.pi_block0.sum() + solution.pi_block1.sum() / (1 - sigma_n)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestReachedPhases:
    """The solve on the phases A0 and A2 reach against the dense solve it replaced."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_agrees_with_the_dense_solve(self, n):
        for d in sorted({1, 2, 3, n} & set(range(1, n + 1))):
            for threshold in range(1, 5):
                if repeating_block_size(n, threshold) > 300:
                    continue
                for utilization in (0.1, 0.5, 0.8, 0.9, 0.95, 0.99):
                    model = SQDModel(n, d, utilization)
                    for bound, method in ((LowerBoundModel, SCALAR), (UpperBoundModel, MATRIX)):
                        blocks = bound(model, threshold).qbd_blocks()
                        case = (n, d, threshold, utilization, bound.__name__)
                        got = solve_or_none(solve_bound_model, blocks, method)
                        expected = solve_or_none(dense_solve_bound_model, blocks, method)
                        assert (got is None) == (expected is None), case
                        if got is None:
                            continue
                        if method is SCALAR:
                            assert got.mean_delay == pytest.approx(expected.mean_delay, rel=1e-13, abs=0), case
                            continue
                        A0, A1, A2 = blocks.A0, blocks.A1, blocks.A2
                        g_got, g_expected = solve_G_logarithmic_reduction(A0, A1, A2), dense_solve_G(A0, A1, A2)
                        assert got.g_iterations == expected.g_iterations == g_expected.iterations, case
                        assert np.abs(g_got.G - g_expected.G).max() <= 1e-12, case
                        # The tail sums (I - R)^-1; its round-off grows like 1 / (1 - sp(R)).
                        radius = spectral_radius(expected.rate_matrix)
                        assert got.mean_delay == pytest.approx(
                            expected.mean_delay, rel=1e-12 / (1.0 - radius), abs=0
                        ), case

    def test_upper_solve_works_on_the_reached_phases(self, monkeypatch):
        # At N = 8, T = 3 the upper model's A0 and A2 reach 37 of 120
        # columns and A0 has 32 nonzero rows: the doubling steps solve
        # 37 x 37 systems and R takes one solve with 32 right-hand sides.
        blocks = UpperBoundModel(SQDModel(8, 2, 0.5), 3).qbd_blocks()
        solves = []
        solve = np.linalg.solve

        def spy(a, b):
            solves.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        solution = solve_bound_model(blocks)
        m, unknowns = blocks.block_size, blocks.boundary_size + blocks.block_size
        assert (m, unknowns) == (120, 345)
        assert solves == [
            ((m, m), (m,)),  # the drift
            ((m, m), (m, 2 * 37)),  # one LU of -A1 for both panels
            *[((37, 37), (37, 2 * 37))] * solution.g_iterations,  # the doubling steps
            ((m, m), (m, 32)),  # R on A0's nonzero rows
            ((32, 32), (32, m)),  # (I - R)^-1 from R's row block
            ((unknowns, unknowns), (unknowns,)),  # the boundary system
        ]


class TestStabilityRules:
    @pytest.mark.parametrize("utilization", [1.0, 1.2])
    def test_lower_model_is_unstable_from_rho_one(self, utilization):
        blocks = LowerBoundModel(SQDModel(3, 2, utilization), 2).qbd_blocks()
        for method in (SCALAR, MATRIX):
            with pytest.raises(UnstableBoundModelError, match="rho >= 1"):
                solve_bound_model(blocks, method)

    def test_lower_model_reports_no_drift(self, small_lower_blocks, small_upper_blocks):
        assert solve_bound_model(small_lower_blocks, SCALAR).drift is None
        assert solve_bound_model(small_lower_blocks, MATRIX).drift is None
        assert solve_bound_model(small_upper_blocks).drift < 0

    def test_zero_drift_upper_model_is_unstable(self):
        # Its drift reads -1.1e-16: zero up to round-off, so R has spectral
        # radius 1 and the geometric tail diverges.
        clear_solver_cache()
        spec = ExperimentSpec.create(num_servers=2, d=1, utilization=0.8, threshold=4)
        result = repro.run(spec, backend="qbd_bounds")
        assert result.extras["upper_bound_unstable"] is True
        assert np.isfinite(result.extras["lower_delay"])
        blocks = UpperBoundModel(SQDModel(2, 1, 0.8), 4).qbd_blocks()
        assert not is_qbd_positive_recurrent(blocks.A0, blocks.A1, blocks.A2)
        # An outcome, cached like every drift-violating point.
        solves = solver_cache().stats.solves
        assert analyze_sqd(2, 1, 0.8, threshold=4).upper_bound_unstable
        assert solver_cache().stats.solves == solves
        clear_solver_cache()

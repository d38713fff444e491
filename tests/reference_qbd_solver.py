"""Reference QBD solves of the bound models, kept for tests only.

:func:`reference_solve_bound_model` is the three-block boundary solve. It
solves the balance equations of Eq. (13)-(14) for ``(pi_b, pi_0, pi_1)``
at once,

    (pi_b, pi_0, pi_1) [[R00, R01, 0], [R10, A1, A0], [0, A2, A1 + W A2]] = 0

with ``W = R`` (Theorem 1) or ``W = sigma^N`` (Theorems 2-3) and the
normalization ``pi_b e + pi_0 e + pi_1 t = 1``, and inverts ``I - R`` once
for the tail weights and again for the delay metrics.  It was the
package's own solve until ``solve_bound_model`` eliminated ``pi_1 = pi_0 W``;
the parity tests check that solve against this one.

:func:`dense_solve_bound_model` is the two-unknown solve on dense blocks,
as the package ran it before it moved onto the phases that ``A0`` and
``A2`` reach: the logarithmic reduction on ``m x m`` matrices
(:func:`dense_solve_G`), ``R`` and Theorem 3's ``W`` with ``m``
right-hand sides, ``inv(I - R)`` (:func:`dense_geometric_block_sum`) and
the boundary solve that copies its balance matrix twice
(:func:`dense_qbd_boundary`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bound_models import BoundKind, QBDBlocks
from repro.core.qbd_solver import (
    BoundModelSolution,
    SolutionMethod,
    UnstableBoundModelError,
    _delay_metrics,
    _require_positive_recurrent,
)
from repro.linalg.blocks import spectral_radius
from repro.linalg.logarithmic_reduction import (
    GSolveResult,
    QBDSolveError,
    qbd_residual,
    rate_matrix_from_G,
    solve_G_logarithmic_reduction,
)
from repro.linalg.solvers import StationarySolveError


def dense_solve_G(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, tolerance: float = 1e-13,
                  max_iterations: int = 64) -> GSolveResult:
    """The logarithmic reduction on ``m x m`` matrices, with the package's stopping rule."""
    m = A1.shape[0]
    identity = np.eye(m)
    neg_A1_inv = np.linalg.inv(-A1)
    B1 = neg_A1_inv @ A0
    B2 = neg_A1_inv @ A2
    G = B2.copy()
    prefix_product = B1.copy()
    for iteration in range(1, max_iterations + 1):
        mix = B1 @ B2 + B2 @ B1
        center_inverse = np.linalg.inv(identity - mix)
        B1_next = center_inverse @ (B1 @ B1)
        B2_next = center_inverse @ (B2 @ B2)
        increment = prefix_product @ B2_next
        G = G + increment
        prefix_product = prefix_product @ B1_next
        B1, B2 = B1_next, B2_next
        change = np.max(np.abs(increment)) if increment.size else 0.0
        if change < tolerance or np.max(np.abs(prefix_product)) < tolerance:
            return GSolveResult(G=G, iterations=iteration, residual=qbd_residual(A0, A1, A2, G))
    raise QBDSolveError(f"logarithmic reduction did not converge within {max_iterations} iterations")


def dense_rate_matrix(A0: np.ndarray, A1: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``R = -A0 (A1 + A0 G)^{-1}`` from one ``m x m`` inverse."""
    R = -A0 @ np.linalg.inv(A1 + A0 @ G)
    if np.any(R < -1e-9):
        raise QBDSolveError("rate matrix R has significantly negative entries")
    return np.clip(R, 0.0, None)


def dense_geometric_block_sum(R: np.ndarray) -> np.ndarray:
    """``inv(I - R)``, guarded by the spectral radius of the whole ``R``."""
    radius = spectral_radius(R)
    if radius >= 1.0 - 1e-12:
        raise ValueError(f"geometric sum diverges: spectral radius of R is {radius:.6f} >= 1")
    return np.linalg.inv(np.eye(R.shape[0]) - R)


def dense_constrained_left_nullspace(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``x @ matrix = 0`` with ``x @ weights = 1``: a copy with its last column replaced, solved transposed."""
    n = matrix.shape[0]
    augmented = matrix.copy()
    augmented[:, -1] = weights
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        solution = np.linalg.solve(augmented.T, rhs)
    except np.linalg.LinAlgError:
        solution = None
    if solution is not None and _balance_residual(solution, matrix, weights) < 1e-7:
        return solution
    stacked = np.hstack([matrix, weights.reshape(-1, 1)])
    target = np.zeros(n + 1)
    target[-1] = 1.0
    solution, *_ = np.linalg.lstsq(stacked.T, target, rcond=None)
    if _balance_residual(solution, matrix, weights) > 1e-6:
        raise StationarySolveError("constrained null-space solve failed to converge")
    return solution


def _balance_residual(solution: np.ndarray, matrix: np.ndarray, weights: np.ndarray) -> float:
    balance = solution @ matrix
    return float(np.linalg.norm(balance[:-1]) + abs(solution @ weights - 1.0))


def dense_qbd_boundary(R00, R01, R10, A1, A2, W, tail_weights):
    """The boundary solve on the full balance matrix ``[[R00, R01], [R10, A1 + W A2]]``."""
    b, m = R00.shape[0], A1.shape[0]
    balance_matrix = np.empty((b + m,) * 2)
    balance_matrix[:b, :b] = R00
    balance_matrix[:b, b:] = R01
    balance_matrix[b:, :b] = R10
    balance_matrix[b:, b:] = A1 + W @ A2
    weights = np.concatenate([np.ones(b), 1.0 + W @ tail_weights])
    solution_vector = dense_constrained_left_nullspace(balance_matrix, weights)
    pi_level1 = solution_vector[b:] @ W
    if np.any(solution_vector < -1e-8) or np.any(pi_level1 < -1e-8):
        raise QBDSolveError("boundary solve produced negative probabilities")
    balance_residual = float(np.linalg.norm(solution_vector @ balance_matrix))
    solution_vector = np.clip(solution_vector, 0.0, None)
    return solution_vector[:b], solution_vector[b:], np.clip(pi_level1, 0.0, None), balance_residual


def dense_solve_bound_model(
    blocks: QBDBlocks,
    method: SolutionMethod = SolutionMethod.MATRIX_GEOMETRIC,
    decay_factor: Optional[float] = None,
) -> BoundModelSolution:
    """``solve_bound_model`` on dense blocks (same stability rule and delay metrics)."""
    model = blocks.model
    A0, A1, A2 = blocks.A0, blocks.A1, blocks.A2
    drift = _require_positive_recurrent(blocks)
    if method is SolutionMethod.MATRIX_GEOMETRIC:
        g_result = dense_solve_G(A0, A1, A2)
        R = W = dense_rate_matrix(A0, A1, g_result.G)
        tail_sum = dense_geometric_block_sum(R)
        tail_weights = tail_sum @ np.ones(blocks.block_size)
        scalar = None
    else:
        assert blocks.kind is BoundKind.LOWER
        scalar = decay_factor if decay_factor is not None else model.utilization ** model.num_servers
        if not 0.0 < scalar < 1.0:
            raise UnstableBoundModelError(f"scalar decay factor {scalar} is outside (0, 1)")
        g_result = R = tail_sum = None
        tail_weights = np.full(blocks.block_size, 1.0 / (1.0 - scalar))
        W = -np.linalg.solve((A1 + scalar * A2).T, A0.T).T
    pi_boundary, pi_block0, pi_block1, balance_residual = dense_qbd_boundary(
        blocks.R00, blocks.R01, blocks.R10, A1, A2, W, tail_weights
    )
    metrics = _delay_metrics(blocks, pi_boundary, pi_block0, pi_block1, R, tail_sum, scalar)
    return BoundModelSolution(
        blocks=blocks,
        method=method,
        pi_boundary=pi_boundary,
        pi_block0=pi_block0,
        pi_block1=pi_block1,
        rate_matrix=R,
        decay_factor=scalar,
        mean_jobs_in_system=metrics["mean_jobs"],
        mean_waiting_jobs=metrics["mean_waiting_jobs"],
        mean_waiting_time=metrics["mean_waiting_time"],
        mean_sojourn_time=metrics["mean_sojourn_time"],
        drift=drift,
        g_iterations=0 if g_result is None else g_result.iterations,
        g_residual=0.0 if g_result is None else g_result.residual,
        balance_residual=balance_residual,
    )


def reference_solve_bound_model(
    blocks: QBDBlocks,
    method: SolutionMethod = SolutionMethod.MATRIX_GEOMETRIC,
    decay_factor: Optional[float] = None,
) -> BoundModelSolution:
    """``solve_bound_model`` with the three-block boundary system (same stability rule)."""
    model = blocks.model
    drift = _require_positive_recurrent(blocks)
    b, m = blocks.boundary_size, blocks.block_size
    if method is SolutionMethod.MATRIX_GEOMETRIC:
        G = solve_G_logarithmic_reduction(blocks.A0, blocks.A1, blocks.A2).G
        R = rate_matrix_from_G(blocks.A0, blocks.A1, G)
        tail_block = blocks.A1 + R @ blocks.A2
        tail_weights = dense_geometric_block_sum(R) @ np.ones(m)
        scalar = None
    else:
        assert blocks.kind is BoundKind.LOWER
        scalar = decay_factor if decay_factor is not None else model.utilization ** model.num_servers
        if not 0.0 < scalar < 1.0:
            raise UnstableBoundModelError(f"scalar decay factor {scalar} is outside (0, 1)")
        R = None
        tail_block = blocks.A1 + scalar * blocks.A2
        tail_weights = np.full(m, 1.0 / (1.0 - scalar))

    matrix = np.zeros((b + 2 * m, b + 2 * m))
    matrix[:b, :b] = blocks.R00
    matrix[:b, b:b + m] = blocks.R01
    matrix[b:b + m, :b] = blocks.R10
    matrix[b:b + m, b:b + m] = blocks.A1
    matrix[b:b + m, b + m:] = blocks.A0
    matrix[b + m:, b:b + m] = blocks.A2
    matrix[b + m:, b + m:] = tail_block
    weights = np.concatenate([np.ones(b), np.ones(m), tail_weights])
    solution = np.clip(dense_constrained_left_nullspace(matrix, weights), 0.0, None)
    pi_boundary, pi_block0, pi_block1 = solution[:b], solution[b:b + m], solution[b + m:]

    block0_totals = blocks.partition.block0_array.sum(axis=1).astype(float)
    boundary = blocks.partition.boundary_array
    n = model.num_servers
    mean_jobs = float(pi_boundary @ boundary.sum(axis=1) + pi_block0 @ block0_totals)
    mean_waiting_jobs = float(
        pi_boundary @ np.maximum(boundary - 1, 0).sum(axis=1) + pi_block0 @ (block0_totals - n)
    )
    if R is not None:
        inverse = np.linalg.inv(np.eye(m) - R)
        tail_mass_vector = pi_block1 @ inverse
        extra_levels = pi_block1 @ inverse @ inverse @ R
        tail_jobs = float(tail_mass_vector @ (block0_totals + n) + n * extra_levels.sum())
        tail_mass = float(tail_mass_vector.sum())
    else:
        tail_mass = float(pi_block1.sum()) / (1.0 - scalar)
        extra_level_mass = float(pi_block1.sum()) * scalar / (1.0 - scalar) ** 2
        tail_jobs = float((pi_block1 @ (block0_totals + n)) / (1.0 - scalar) + n * extra_level_mass)
    mean_jobs += tail_jobs
    mean_waiting_jobs += tail_jobs - n * tail_mass
    mean_waiting_time = mean_waiting_jobs / model.total_arrival_rate
    return BoundModelSolution(
        blocks=blocks,
        method=method,
        pi_boundary=pi_boundary,
        pi_block0=pi_block0,
        pi_block1=pi_block1,
        rate_matrix=R,
        decay_factor=scalar,
        mean_jobs_in_system=mean_jobs,
        mean_waiting_jobs=mean_waiting_jobs,
        mean_waiting_time=mean_waiting_time,
        mean_sojourn_time=mean_waiting_time + 1.0 / model.service_rate,
        drift=drift,
    )

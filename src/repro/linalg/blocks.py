"""Spectral radius, geometric sums and the boundary solve of matrix-geometric solutions."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.linalg.logarithmic_reduction import QBDSolveError
from repro.linalg.solvers import solve_constrained_left_nullspace


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def geometric_block_sum(R: np.ndarray, terms: np.ndarray | None = None) -> np.ndarray:
    """Return ``(I - R)^{-1}`` or ``(I - R)^{-1} @ terms``.

    Requires the spectral radius of ``R`` to be strictly below one, which for
    a QBD is equivalent to positive recurrence.
    """
    R = np.asarray(R, dtype=float)
    radius = spectral_radius(R)
    if radius >= 1.0 - 1e-12:
        raise ValueError(f"geometric sum diverges: spectral radius of R is {radius:.6f} >= 1")
    inverse = np.linalg.inv(np.eye(R.shape[0]) - R)
    if terms is None:
        return inverse
    return inverse @ np.asarray(terms, dtype=float)


def solve_qbd_boundary(
    R00: np.ndarray,
    R01: np.ndarray,
    R10: np.ndarray,
    A1: np.ndarray,
    A2: np.ndarray,
    W: np.ndarray,
    tail_weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve a QBD's boundary balance equations for the boundary and level 0.

    With level 1 written as ``pi_1 = pi_0 W``, the unknowns solve
    ``(pi_b, pi_0) [[R00, R01], [R10, A1 + W A2]] = 0`` with
    ``pi_b e + pi_0 (e + W t) = 1``, where ``t = tail_weights`` sums the
    levels ``1, 2, ...`` in units of ``pi_1`` (``(I - R)^{-1} e`` for a
    matrix-geometric tail).  Entries below ``-1e-8`` raise
    :class:`QBDSolveError`; smaller negative round-off is clipped to zero.

    Returns ``(pi_b, pi_0, pi_1, balance_residual)``, the residual taken
    at the unclipped solution.
    """
    b, m = R00.shape[0], A1.shape[0]
    balance_matrix = np.empty((b + m,) * 2)
    balance_matrix[:b, :b] = R00
    balance_matrix[:b, b:] = R01
    balance_matrix[b:, :b] = R10
    balance_matrix[b:, b:] = A1 + W @ A2
    weights = np.concatenate([np.ones(b), 1.0 + W @ tail_weights])
    solution_vector = solve_constrained_left_nullspace(balance_matrix, weights)
    pi_level1 = solution_vector[b:] @ W
    if np.any(solution_vector < -1e-8) or np.any(pi_level1 < -1e-8):
        raise QBDSolveError("boundary solve produced negative probabilities")
    balance_residual = float(np.linalg.norm(solution_vector @ balance_matrix))
    solution_vector = np.clip(solution_vector, 0.0, None)
    return solution_vector[:b], solution_vector[b:], np.clip(pi_level1, 0.0, None), balance_residual

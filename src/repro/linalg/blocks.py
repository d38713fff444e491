"""Spectral radius, geometric sums and the boundary solve of matrix-geometric solutions.

``R`` and the boundary block ``W`` of a QBD vanish outside the nonzero rows
of ``A0``.  :func:`geometric_block_sum` and :func:`solve_qbd_boundary` read
those rows off the matrix they are given and work on them alone; a dense
matrix runs the same code with every row in the set.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.linalg.logarithmic_reduction import QBDSolveError
from repro.linalg.solvers import solve_normalized_transposed


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def geometric_block_sum(R: np.ndarray) -> np.ndarray:
    """Return ``(I - R)^{-1}``, the sum of the powers of ``R``.

    Requires the spectral radius of ``R`` to be strictly below one, which for
    a QBD is equivalent to positive recurrence.  With ``r`` the nonzero rows
    of ``R`` and ``E`` the columns of the identity in ``r``, ``R = E R[r, :]``,
    so ``R`` shares its nonzero eigenvalues with ``R[r, r]`` and

        (I - R)^{-1} = I + E (I - R[r, r])^{-1} R[r, :]:

    the guard and the inverse take ``|r| x |r|`` work.
    """
    R = np.asarray(R, dtype=float)
    rows = np.flatnonzero(R.any(axis=1))
    head = R[rows]
    corner = head[:, rows]
    radius = spectral_radius(corner)
    if radius >= 1.0 - 1e-12:
        raise ValueError(f"geometric sum diverges: spectral radius of R is {radius:.6f} >= 1")
    inverse = np.eye(R.shape[0])
    inverse[rows] += np.linalg.solve(np.eye(len(rows)) - corner, head)
    return inverse


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
    matrix-geometric tail).  ``W A2`` and ``W t`` are formed on the nonzero
    rows of ``W`` only.  The transposed system is assembled once, with the
    normalization in place of the last balance equation
    (:func:`repro.linalg.solvers.solve_normalized_transposed`).  Entries
    below ``-1e-8`` raise :class:`QBDSolveError`; smaller negative
    round-off is clipped to zero.

    Returns ``(pi_b, pi_0, pi_1, balance_residual)``, the residual taken
    at the unclipped solution.
    """
    b, m = R00.shape[0], A1.shape[0]
    rows = np.flatnonzero(W.any(axis=1))
    head = W[rows]
    system = np.empty((b + m,) * 2)
    system[:b, :b] = R00.T
    system[:b, b:] = R10.T
    system[b:, :b] = R01.T
    system[b:, b:] = A1.T
    system[b:, b + rows] += (head @ A2).T
    weights = np.ones(b + m)
    weights[b + rows] += head @ tail_weights
    solution_vector, balance_residual = solve_normalized_transposed(system, weights)
    pi_level1 = solution_vector[b:] @ W
    if np.any(solution_vector < -1e-8) or np.any(pi_level1 < -1e-8):
        raise QBDSolveError("boundary solve produced negative probabilities")
    solution_vector = np.clip(solution_vector, 0.0, None)
    return solution_vector[:b], solution_vector[b:], np.clip(pi_level1, 0.0, None), balance_residual

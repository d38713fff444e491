"""Dense stationary and constrained left-nullspace solvers.

The solvers work with dense NumPy arrays: they serve the small generators
and boundary systems of the QBD bound models, the MAP phase process and the
MAP/PH/1 queue, for which dense LU factorization is both simpler and faster
than sparse methods.  The exact truncated SQ(d) chain, which is large and
sparse, is solved in :mod:`repro.core.exact` and shares only
:func:`_clean_distribution`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class StationarySolveError(RuntimeError):
    """Raised when a stationary distribution cannot be computed."""


def solve_constrained_left_nullspace(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Solve ``x @ matrix = 0`` subject to ``x @ weights = 1``.

    This is the canonical way of solving QBD boundary balance equations: the
    balance system is rank deficient by one, and the missing equation is the
    normalization condition with non-uniform ``weights`` (for QBDs the weight
    of the last repeating block is ``(I - R)^{-1} e``).  The work is done by
    :func:`solve_normalized_transposed` on a transposed copy of ``matrix``.
    """
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if weights.shape != (n,):
        raise ValueError("weights must have one entry per state")
    solution, _ = solve_normalized_transposed(matrix.T.copy(), weights)
    return solution


def solve_normalized_transposed(system: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, float]:
    """Solve ``x @ M = 0`` with ``x @ weights = 1``, given ``system = M.T``.

    The last row of ``system`` (the last balance equation) is overwritten
    by ``weights``, and the resulting square system, regular for
    irreducible chains, is solved for ``x``.  If it is still singular (the
    dropped balance equation was not redundant), the solve falls back to a
    least-squares solve of all balance equations plus the normalization.
    The caller assembles ``system`` once and gives it up: no copy is made.

    Returns ``(x, ||x @ M||)``, the residual of every balance equation.
    """
    n = system.shape[0]
    balance_row = system[-1].copy()
    system[-1] = weights
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        solution = None
    if solution is not None:
        balance = system @ solution
        if _normalized_residual(balance) < 1e-7:
            balance[-1] = balance_row @ solution
            return solution, float(np.linalg.norm(balance))

    # Fall back: stack all balance equations plus the normalization and solve
    # in the least-squares sense (handles the rare case where the dropped
    # balance equation was not redundant).
    stacked = np.vstack([system[:-1], balance_row, weights])
    target = np.zeros(n + 1)
    target[-1] = 1.0
    solution, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    balance = stacked @ solution
    if _normalized_residual(np.delete(balance, n - 1)) > 1e-6:
        raise StationarySolveError("constrained null-space solve failed to converge")
    return solution, float(np.linalg.norm(balance[:n]))


def _normalized_residual(balance: np.ndarray) -> float:
    """Residual of the balance equations in ``balance[:-1]`` plus the normalization's.

    ``balance[-1]`` is ``x @ weights``: the last balance equation was
    sacrificed for normalization.
    """
    return float(np.linalg.norm(balance[:-1]) + abs(balance[-1] - 1.0))


def stationary_from_generator(generator: np.ndarray) -> np.ndarray:
    """Stationary distribution ``pi`` of an irreducible CTMC generator.

    Solves ``pi @ Q = 0`` with ``pi @ 1 = 1`` and clips tiny negative entries
    produced by round-off.
    """
    generator = np.asarray(generator, dtype=float)
    n = generator.shape[0]
    _check_generator(generator)
    weights = np.ones(n)
    pi = solve_constrained_left_nullspace(generator, weights)
    return _clean_distribution(pi)


def _check_generator(generator: np.ndarray) -> None:
    n = generator.shape[0]
    if generator.shape != (n, n):
        raise ValueError("generator must be square")
    off_diagonal = generator - np.diag(np.diag(generator))
    if np.any(off_diagonal < -1e-9):
        raise ValueError("generator off-diagonal entries must be non-negative")
    row_sums = generator.sum(axis=1)
    if not np.allclose(row_sums, 0.0, atol=1e-7 * max(1.0, np.abs(generator).max())):
        raise ValueError("generator rows must sum to 0")


def _clean_distribution(pi: np.ndarray) -> np.ndarray:
    pi = np.asarray(pi, dtype=float).copy()
    if not np.all(np.isfinite(pi)):
        raise StationarySolveError("stationary solve produced non-finite probabilities")
    if pi.sum() < 0:
        pi = -pi
    pi[np.abs(pi) < 1e-14] = 0.0
    if np.any(pi < -1e-8):
        raise StationarySolveError("stationary solve produced significantly negative probabilities")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise StationarySolveError("stationary solve produced a zero vector")
    return pi / total

"""Matrix-geometric machinery for Quasi-Birth-Death (QBD) processes.

A (continuous-time) QBD process has a block-tridiagonal generator whose
repeating blocks are ``A0`` (up one level), ``A1`` (within level) and ``A2``
(down one level).  Its stationary distribution has the matrix-geometric form
``pi_{q+1} = pi_q R``, where the rate matrix ``R`` is obtained from the
matrix ``G`` solving ``A2 + A1 G + A0 G^2 = 0``.

Two solvers for ``G`` are provided:

* :func:`solve_G_logarithmic_reduction` — the quadratically convergent
  algorithm of Latouche & Ramaswami (1993) used in the paper (Section IV.A),
* :func:`solve_G_functional_iteration` — the simple linearly convergent
  fixed-point iteration, kept as an independent cross-check.

Both operate directly on generator blocks (rates, not probabilities).

The logarithmic reduction and ``R`` work on the phases that ``A0`` and
``A2`` reach.  ``G``, ``(-A1)^{-1} A0`` and ``(-A1)^{-1} A2`` vanish outside
the nonzero columns of ``A0`` and ``A2``, and ``R`` outside the nonzero
rows of ``A0``.  In the SQ(d) bound models a block spans ``N`` job counts
and a transition moves one job (two under the upper model's redirect), so
``A0`` and ``A2`` only link the edge layers of adjacent blocks: at
``N = 8, T = 3`` the upper model's blocks reach 37 of 120 columns, and
``A0`` has 32 nonzero rows.  The index sets are read off the blocks, so a
dense input (a MAP/PH/1 queue) runs the same code with every phase in them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.solvers import _clean_distribution, solve_constrained_left_nullspace


class QBDSolveError(RuntimeError):
    """Raised when the QBD fixed-point equations cannot be solved."""


@dataclass(frozen=True)
class GSolveResult:
    """Outcome of a G-matrix computation.

    Attributes
    ----------
    G:
        The first-passage probability matrix ``G``.
    iterations:
        Number of iterations the algorithm performed.
    residual:
        Frobenius norm of ``A2 + A1 G + A0 G^2``.
    """

    G: np.ndarray
    iterations: int
    residual: float


def _validate_blocks(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    A0 = np.asarray(A0, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    m = A1.shape[0]
    for name, block in (("A0", A0), ("A1", A1), ("A2", A2)):
        if block.shape != (m, m):
            raise ValueError(f"{name} must be a square block of size {m}x{m}, got {block.shape}")
    if np.any(A0 < -1e-12) or np.any(A2 < -1e-12):
        raise ValueError("A0 and A2 must be non-negative rate blocks")
    off_diag = A1 - np.diag(np.diag(A1))
    if np.any(off_diag < -1e-12):
        raise ValueError("off-diagonal entries of A1 must be non-negative")
    row_sums = (A0 + A1 + A2).sum(axis=1)
    if np.any(row_sums > 1e-7 * max(1.0, np.abs(A1).max())):
        raise ValueError("A0 + A1 + A2 must have non-positive row sums for a QBD generator")
    return A0, A1, A2


def qbd_residual(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, G: np.ndarray) -> float:
    """Frobenius norm of the defining equation ``A2 + A1 G + A0 G^2``."""
    A0, A1, A2, G = (np.asarray(block, dtype=float) for block in (A0, A1, A2, G))
    columns = np.flatnonzero(G.any(axis=0) | A2.any(axis=0))
    return _residual_on(A0, A1, A2, G[:, columns], columns)


def _residual_on(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, panel: np.ndarray, columns: np.ndarray) -> float:
    """:func:`qbd_residual` of the ``G`` whose only nonzero columns ``columns`` hold ``panel``.

    Every column of ``A2 + A1 G + A0 G^2`` outside ``columns`` is zero, and
    ``G^2 = panel @ panel[columns]`` on them.
    """
    return float(np.linalg.norm(A2[:, columns] + A1 @ panel + A0 @ (panel @ panel[columns])))


def qbd_drift(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray) -> float:
    """Mean drift ``pi A0 e - pi A2 e`` of the level process.

    ``pi`` is the stationary distribution of the aggregated phase generator
    ``A = A0 + A1 + A2``.  A negative drift (downward) is equivalent to
    positive recurrence of the QBD (Neuts' condition ``pi A0 e < pi A2 e``).
    The blocks are taken as given: :func:`solve_G_logarithmic_reduction`
    checks them, so a stable model's solve checks them once.
    """
    A0 = np.asarray(A0, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    aggregate = A0 + np.asarray(A1, dtype=float) + A2
    # The aggregate matrix may have slightly negative row sums because the
    # caller's level-independent part can lose probability at redirections;
    # repair it into a proper generator for the drift computation, which
    # needs no generator check after that.
    aggregate -= np.diag(aggregate.sum(axis=1))
    ones = np.ones(A0.shape[0])
    pi = _clean_distribution(solve_constrained_left_nullspace(aggregate, ones))
    return float(pi @ A0 @ ones - pi @ A2 @ ones)


#: A drift within this fraction of the fastest exit rate ``-min diag(A1)``
#: is zero up to round-off: the QBD is then null, not positive, recurrent.
ZERO_DRIFT = 1e-12


def drifts_downward(drift: float, A1: np.ndarray, tolerance: float = 0.0) -> bool:
    """Whether ``drift`` (of :func:`qbd_drift`) is negative beyond round-off.

    The drift must lie below ``-tolerance`` and below ``-ZERO_DRIFT`` times
    the fastest exit rate of ``A1``: a drift of ``-1e-16`` on rates of
    order one is a zero drift, for which ``R`` has spectral radius 1.
    """
    scale = -float(np.min(np.diag(A1)))
    return drift < -max(abs(tolerance), ZERO_DRIFT * scale)


def is_qbd_positive_recurrent(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, tolerance: float = 0.0) -> bool:
    """Neuts' stability condition: the level process drifts downward (see :func:`drifts_downward`)."""
    return drifts_downward(qbd_drift(A0, A1, A2), A1, tolerance)


def solve_G_functional_iteration(
    A0: np.ndarray,
    A1: np.ndarray,
    A2: np.ndarray,
    tolerance: float = 1e-12,
    max_iterations: int = 100_000,
) -> GSolveResult:
    """Solve for ``G`` with the natural fixed-point iteration.

    Iterates ``G <- (-A1)^{-1} (A2 + A0 G^2)`` starting from ``G = 0``.  The
    iteration converges monotonically for positive recurrent QBDs, but only
    linearly; it exists mainly as an independent check of the logarithmic
    reduction solver.
    """
    A0, A1, A2 = _validate_blocks(A0, A1, A2)
    neg_A1_inv = np.linalg.inv(-A1)
    G = np.zeros_like(A1)
    for iteration in range(1, max_iterations + 1):
        G_next = neg_A1_inv @ (A2 + A0 @ G @ G)
        delta = np.max(np.abs(G_next - G))
        G = G_next
        if delta < tolerance:
            return GSolveResult(G=G, iterations=iteration, residual=qbd_residual(A0, A1, A2, G))
    raise QBDSolveError(f"functional iteration did not converge within {max_iterations} iterations")


def solve_G_logarithmic_reduction(
    A0: np.ndarray,
    A1: np.ndarray,
    A2: np.ndarray,
    tolerance: float = 1e-13,
    max_iterations: int = 64,
) -> GSolveResult:
    """Latouche–Ramaswami logarithmic reduction for the matrix ``G``.

    Follows the formulation used in the paper (Section IV.A):

    .. math::

        B_{1,1} = (-A_1)^{-1} A_0, \\qquad B_{2,1} = (-A_1)^{-1} A_2,

        B_{1,i} = (I - B_{1,i-1} B_{2,i-1} - B_{2,i-1} B_{1,i-1})^{-1} B_{1,i-1}^2,

        B_{2,i} = (I - B_{1,i-1} B_{2,i-1} - B_{2,i-1} B_{1,i-1})^{-1} B_{2,i-1}^2,

    and ``G = B_{2,1} + B_{1,1} B_{2,2} + B_{1,1} B_{1,2} B_{2,3} + ...``
    (Latouche & Ramaswami, 1993).  In practice only a handful of iterations
    are needed (the paper reports ``k <= 6`` for its configurations)
    because the error decays doubly exponentially.  It stops when the
    latest term or the prefix product ``B_{1,1} ... B_{1,k}`` falls below
    ``tolerance``.

    The iteration stays on the set ``S`` of nonzero columns of ``A0`` and
    ``A2``.  With ``E`` the columns of the identity in ``S``, every
    ``B_{j,i}`` is an ``m x |S|`` panel times ``E^T``, and one LU of
    ``-A1`` gives both first panels.  By Woodbury,
    ``(I - U E^T)^{-1} = I + U (I - E^T U)^{-1} E^T``, so the rows ``S`` of
    ``(I - B_1 B_2 - B_2 B_1)^{-1} X`` are ``(I - U_S)^{-1} X_S`` with
    ``U_S = B_1[S, S] B_2[S, S] + B_2[S, S] B_1[S, S]``: each doubling step
    is one ``|S| x |S|`` solve on the rows ``S``, which are all that ``G``
    and the prefix product read.  Only those two keep all ``m`` rows.
    """
    A0, A1, A2 = _validate_blocks(A0, A1, A2)
    m = A1.shape[0]
    reach = np.flatnonzero(A0.any(axis=0) | A2.any(axis=0))
    size = len(reach)
    identity = np.eye(size)

    panels = np.linalg.solve(-A1, np.concatenate([A0[:, reach], A2[:, reach]], axis=1))
    # G accumulates  L + U L^(2) + U U^(2) L^(4) + ...  where U and L are
    # the one-step up and down blocks and the superscripts denote the
    # doubled-step matrices produced by the reduction.  G and the prefix
    # product hold their columns S; B1 and B2 their block S x S.
    prefix_product = panels[:, :size]
    G = panels[:, size:].copy()
    B1 = prefix_product[reach]
    B2 = G[reach]

    for iteration in range(1, max_iterations + 1):
        center = identity - (B1 @ B2 + B2 @ B1)
        try:
            squares = np.linalg.solve(center, np.concatenate([B1 @ B1, B2 @ B2], axis=1))
        except np.linalg.LinAlgError as exc:
            raise QBDSolveError("logarithmic reduction hit a singular intermediate matrix") from exc
        B1, B2 = squares[:, :size], squares[:, size:]

        increment = prefix_product @ B2
        G += increment
        prefix_product = prefix_product @ B1

        change = np.abs(increment).max(initial=0.0)
        if change < tolerance or np.abs(prefix_product).max(initial=0.0) < tolerance:
            residual = _residual_on(A0, A1, A2, G, reach)
            if residual > 1e-6 * max(1.0, np.abs(A1).max()):
                raise QBDSolveError(f"logarithmic reduction converged to a poor solution (residual {residual:.3e})")
            full = np.zeros((m, m))
            full[:, reach] = G
            return GSolveResult(G=full, iterations=iteration, residual=residual)

    raise QBDSolveError(f"logarithmic reduction did not converge within {max_iterations} iterations")


def rate_matrix_from_G(A0: np.ndarray, A1: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Compute the rate matrix ``R = -A0 (A1 + A0 G)^{-1}`` (Latouche & Ramaswami).

    ``R`` vanishes outside the nonzero rows of ``A0``, so only those rows
    are formed: one LU of ``A1 + A0 G`` with that many right-hand sides.
    """
    A0 = np.asarray(A0, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    G = np.asarray(G, dtype=float)
    rows = np.flatnonzero(A0.any(axis=1))
    columns = np.flatnonzero(G.any(axis=0))
    shifted = A1.copy()
    shifted[np.ix_(rows, columns)] += A0[rows] @ G[:, columns]
    try:
        panel = np.linalg.solve(shifted.T, -A0[rows].T).T
    except np.linalg.LinAlgError as exc:
        raise QBDSolveError("A1 + A0 G is singular; cannot form the rate matrix R") from exc
    if np.any(panel < -1e-9):
        raise QBDSolveError("rate matrix R has significantly negative entries")
    R = np.zeros_like(A1)
    R[rows] = np.clip(panel, 0.0, None)
    return R


def rate_matrix_residual(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, R: np.ndarray) -> float:
    """Frobenius norm of ``A0 + R A1 + R^2 A2`` (should vanish for the true R).

    Formed on the rows where ``A0`` or ``R`` is nonzero; the others are zero.
    """
    A0 = np.asarray(A0, dtype=float)
    R = np.asarray(R, dtype=float)
    rows = np.flatnonzero(A0.any(axis=1) | R.any(axis=1))
    head = R[rows]
    return float(np.linalg.norm(A0[rows] + head @ A1 + (head[:, rows] @ head) @ A2))

"""Numerical linear-algebra substrate for Markov-chain and QBD analysis.

This subpackage is independent of the SQ(d) model: it provides dense
stationary solvers for small generators and boundary systems, the
Latouche–Ramaswami logarithmic reduction algorithm for Quasi-Birth-Death
(QBD) processes, and the spectral-radius, geometric-sum and boundary-solve
steps of the matrix-geometric solution.
"""

from repro.linalg.solvers import (
    stationary_from_generator,
    solve_constrained_left_nullspace,
)
from repro.linalg.logarithmic_reduction import (
    QBDSolveError,
    solve_G_logarithmic_reduction,
    solve_G_functional_iteration,
    rate_matrix_from_G,
    qbd_drift,
    is_qbd_positive_recurrent,
)
from repro.linalg.blocks import spectral_radius, geometric_block_sum, solve_qbd_boundary

__all__ = [
    "stationary_from_generator",
    "solve_constrained_left_nullspace",
    "QBDSolveError",
    "solve_G_logarithmic_reduction",
    "solve_G_functional_iteration",
    "rate_matrix_from_G",
    "qbd_drift",
    "is_qbd_positive_recurrent",
    "spectral_radius",
    "geometric_block_sum",
    "solve_qbd_boundary",
]

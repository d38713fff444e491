"""The three-block boundary solve of the bound models, kept for tests only.

It solves the balance equations of Eq. (13)-(14) for ``(pi_b, pi_0, pi_1)``
at once,

    (pi_b, pi_0, pi_1) [[R00, R01, 0], [R10, A1, A0], [0, A2, A1 + W A2]] = 0

with ``W = R`` (Theorem 1) or ``W = sigma^N`` (Theorems 2-3) and the
normalization ``pi_b e + pi_0 e + pi_1 t = 1``, and inverts ``I - R`` once
for the tail weights and again for the delay metrics.  It was the
package's own solve until ``solve_bound_model`` eliminated ``pi_1 = pi_0 W``;
the parity tests check that solve against this one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bound_models import BoundKind, QBDBlocks
from repro.core.qbd_solver import (
    BoundModelSolution,
    SolutionMethod,
    UnstableBoundModelError,
    _require_positive_recurrent,
)
from repro.linalg.blocks import geometric_block_sum
from repro.linalg.logarithmic_reduction import rate_matrix_from_G, solve_G_logarithmic_reduction
from repro.linalg.solvers import solve_constrained_left_nullspace


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
        tail_weights = geometric_block_sum(R, np.ones(m))
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
    solution = np.clip(solve_constrained_left_nullspace(matrix, weights), 0.0, None)
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

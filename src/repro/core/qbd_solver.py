"""Matrix-geometric solution of the bound models (Theorem 1 of the paper).

Given the generator blocks assembled by
:class:`repro.core.bound_models.QBDBlocks`, this module

1. computes the matrix ``G`` with the Latouche–Ramaswami logarithmic
   reduction and the rate matrix ``R = -A0 (A1 + A0 G)^{-1}``,
2. solves the boundary balance equations of Eq. (13)-(14) for the two block
   unknowns ``(pi_b, pi_0)`` with
   :func:`repro.linalg.blocks.solve_qbd_boundary`:

   .. math:: (\\pi_b, \\pi_0)
             \\begin{pmatrix} R_{00} & R_{01} \\\\
                              R_{10} & A_1 + W A_2 \\end{pmatrix} = 0,
             \\qquad \\pi_1 = \\pi_0 W,

   with the normalization ``pi_b e + pi_0 (e + W t) = 1``, where the tail
   weights ``t = (I - R)^{-1} e`` sum the repeating blocks ``B1, B2, ...``,
3. holds the stationary distribution as the arrays ``pi_boundary``,
   ``pi_block0`` and ``pi_block1``, aligned with the partition's state
   arrays (``pi_{q+1} = pi_q R`` for ``q >= 1``), and the delay metrics
   derived from them.

Here ``W = R``: the balance of ``B1``, ``pi_0 A0 + pi_1 (A1 + R A2) = 0``,
gives ``pi_1 = -pi_0 A0 (A1 + R A2)^{-1}``, and ``R A2 = A0 G`` turns that
into ``-pi_0 A0 (A1 + A0 G)^{-1} = pi_0 R``.

The same code also solves the *improved lower bound* of Theorems 2-3, where
the rate matrix is replaced by the scalar ``sigma^N`` (``rho^N`` for Poisson
arrivals): the balance of ``B1`` reads ``pi_0 A0 + pi_1 (A1 + sigma^N A2) =
0``, so ``W = -A0 (A1 + sigma^N A2)^{-1}``, and the tail weights are
``t = e / (1 - sigma^N)``.

The lower bound model only reroutes jobs, so it is positive recurrent
exactly when ``rho < 1`` (Section III), and its solve checks just that.
The upper model checks Neuts' drift condition; a drift within round-off of
zero counts as unstable.

Every step works on the phases ``A0`` and ``A2`` reach.  A block spans
``N`` job counts and a transition moves one job (two under the upper
model's redirect), so ``A0`` and ``A2`` only link the edge layers of
adjacent blocks: ``G`` is iterated on their nonzero columns, and ``R``,
``W``, the tail sum ``(I - R)^{-1}`` and the boundary's ``W A2`` are
formed on ``A0``'s nonzero rows (see :mod:`repro.linalg.logarithmic_reduction`
and :mod:`repro.linalg.blocks`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.bound_models import BoundKind, QBDBlocks
from repro.linalg.blocks import geometric_block_sum, solve_qbd_boundary
from repro.linalg.logarithmic_reduction import (
    drifts_downward,
    qbd_drift,
    rate_matrix_from_G,
    rate_matrix_residual,
    solve_G_logarithmic_reduction,
)


class SolutionMethod(enum.Enum):
    """How the geometric tail of the stationary distribution is represented."""

    MATRIX_GEOMETRIC = "matrix-geometric"
    SCALAR_GEOMETRIC = "scalar-geometric"


class UnstableBoundModelError(RuntimeError):
    """Raised when the (upper) bound model violates Neuts' drift condition."""


@dataclass(frozen=True)
class BoundModelSolution:
    """Stationary solution of a bound model and the delay metrics derived from it.

    ``pi_boundary`` is aligned with ``blocks.partition.boundary_array`` and
    ``pi_block0`` with ``blocks.partition.block0_array``; ``pi_block1``
    belongs to the states of ``B0`` with one more job a server, and every
    further block follows by one more application of the rate matrix (or
    of the scalar decay factor).
    """

    blocks: QBDBlocks
    method: SolutionMethod
    pi_boundary: np.ndarray
    pi_block0: np.ndarray
    pi_block1: np.ndarray
    rate_matrix: Optional[np.ndarray]
    decay_factor: Optional[float]
    mean_jobs_in_system: float
    mean_waiting_jobs: float
    mean_waiting_time: float
    mean_sojourn_time: float
    drift: Optional[float]  #: the upper model's; None for the lower model, stable iff rho < 1
    g_iterations: int = 0
    g_residual: float = 0.0
    r_residual: float = 0.0
    balance_residual: float = 0.0

    @property
    def mean_delay(self) -> float:
        """The paper's "average delay" — the mean sojourn (response) time."""
        return self.mean_sojourn_time

    @property
    def kind(self) -> BoundKind:
        return self.blocks.kind

    def _advance(self, vector: np.ndarray) -> np.ndarray:
        if self.method is SolutionMethod.MATRIX_GEOMETRIC:
            return vector @ self.rate_matrix
        return vector * self.decay_factor

    def total_probability_mass(self, max_blocks: int = 200) -> float:
        """Numerically re-sum the probability mass (sanity check, should be ~1)."""
        mass = float(self.pi_boundary.sum() + self.pi_block0.sum())
        vector = self.pi_block1.copy()
        for _ in range(max_blocks):
            mass += float(vector.sum())
            vector = self._advance(vector)
            if vector.sum() < 1e-16:
                break
        return mass

    def queue_length_tail_distribution(self, max_length: int = 40, tolerance: float = 1e-14) -> list:
        """Fraction of servers with at least ``k`` jobs, for ``k = 0 .. max_length``.

        This is the bound-model analogue of Mitzenmacher's asymptotic
        fractions ``s_k`` (see
        :func:`repro.core.asymptotic.asymptotic_queue_length_distribution`),
        computed from the stationary distribution by averaging the indicator
        ``m_i >= k`` over servers and states.  The geometric tail over the
        repeating blocks is summed numerically until its mass drops below
        ``tolerance``.
        """
        num_servers = self.blocks.model.num_servers
        levels = np.arange(max_length + 1)
        partition = self.blocks.partition

        def counts(states: np.ndarray) -> np.ndarray:
            # Row i, column k: how many servers of state i hold >= k jobs.
            return (states[:, :, None] >= levels).sum(axis=1) / num_servers

        block_counts = counts(partition.block0_array)
        tail = self.pi_boundary @ counts(partition.boundary_array) + self.pi_block0 @ block_counts
        # Block B_q is B0 with q more jobs a server: at level k it counts as
        # B0 at level k - q, and every server holds >= k jobs for k <= q.
        vector = self.pi_block1.copy()
        shift = 1
        while float(vector.sum()) > tolerance and shift < 10_000:
            tail[:shift + 1] += vector.sum()
            if shift < max_length:
                tail[shift + 1:] += (vector @ block_counts)[1:max_length + 1 - shift]
            vector = self._advance(vector)
            shift += 1
        return [float(value) for value in tail]


def solve_bound_model(
    blocks: QBDBlocks,
    method: SolutionMethod | str = SolutionMethod.MATRIX_GEOMETRIC,
    decay_factor: Optional[float] = None,
) -> BoundModelSolution:
    """Solve a bound model for its stationary distribution and delay metrics.

    Parameters
    ----------
    blocks:
        Generator blocks from :meth:`LowerBoundModel.qbd_blocks` or
        :meth:`UpperBoundModel.qbd_blocks`.
    method:
        ``MATRIX_GEOMETRIC`` implements Theorem 1 (works for both bound
        models); ``SCALAR_GEOMETRIC`` implements Theorems 2-3 and is only
        valid for the lower bound model.
    decay_factor:
        The scalar ``sigma^N`` for the scalar-geometric method.  Defaults to
        ``rho^N`` (Theorem 3, Poisson arrivals) when omitted.

    Raises
    ------
    UnstableBoundModelError
        If the bound model is not positive recurrent: the lower model at
        ``rho >= 1``, the upper model when its drift is not negative
        (typically at high utilization / small T).
    """
    if isinstance(method, str):
        method = SolutionMethod(method)

    model = blocks.model
    A0, A1, A2 = blocks.A0, blocks.A1, blocks.A2
    drift = _require_positive_recurrent(blocks)

    if method is SolutionMethod.MATRIX_GEOMETRIC:
        g_result = solve_G_logarithmic_reduction(A0, A1, A2)
        R = rate_matrix_from_G(A0, A1, g_result.G)
        r_residual = rate_matrix_residual(A0, A1, A2, R)
        tail_sum = geometric_block_sum(R)  # (I - R)^{-1}
        tail_weights = tail_sum @ np.ones(blocks.block_size)
        W = R
        scalar = None
        g_iterations = g_result.iterations
        g_residual = g_result.residual
    else:
        if blocks.kind is not BoundKind.LOWER:
            raise ValueError("the scalar-geometric (improved) method only applies to the lower bound model")
        scalar = decay_factor if decay_factor is not None else model.utilization ** model.num_servers
        if not 0.0 < scalar < 1.0:
            raise UnstableBoundModelError(f"scalar decay factor {scalar} is outside (0, 1)")
        R = tail_sum = None
        r_residual = 0.0
        g_iterations = 0
        g_residual = 0.0
        tail_weights = np.full(blocks.block_size, 1.0 / (1.0 - scalar))
        W = _scalar_level1_block(A0, A1, A2, scalar)

    pi_boundary, pi_block0, pi_block1, balance_residual = solve_qbd_boundary(
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
        g_iterations=g_iterations,
        g_residual=g_residual,
        r_residual=r_residual,
        balance_residual=balance_residual,
    )


def _scalar_level1_block(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, scalar: float) -> np.ndarray:
    """Theorem 3's ``W = -A0 (A1 + sigma^N A2)^{-1}``, formed on ``A0``'s nonzero rows.

    ``W`` vanishes on the other rows, so one solve with that many
    right-hand sides gives it.
    """
    rows = np.flatnonzero(A0.any(axis=1))
    W = np.zeros_like(A1)
    W[rows] = np.linalg.solve((A1 + scalar * A2).T, -A0[rows].T).T
    return W


def _require_positive_recurrent(blocks: QBDBlocks) -> Optional[float]:
    """Raise :class:`UnstableBoundModelError` unless the bound model is positive recurrent.

    The lower model only reroutes jobs, so its condition is ``rho < 1``
    (Section III) and no drift is computed: ``None`` is returned.  The
    upper model's drift (Neuts' condition) is returned when it is negative
    beyond round-off (:func:`repro.linalg.logarithmic_reduction.drifts_downward`).
    """
    model = blocks.model
    if blocks.kind is BoundKind.LOWER:
        if not model.is_stable:
            raise UnstableBoundModelError(
                f"lower bound model with T={blocks.threshold} is not positive recurrent "
                f"at utilization {model.utilization:.3f} (rho >= 1)"
            )
        return None
    drift = qbd_drift(blocks.A0, blocks.A1, blocks.A2)
    if not drifts_downward(drift, blocks.A1):
        raise UnstableBoundModelError(
            f"{blocks.kind.value} bound model with T={blocks.threshold} is not positive recurrent "
            f"at utilization {model.utilization:.3f} (drift {drift:.3e} is not negative)"
        )
    return drift


def _delay_metrics(
    blocks: QBDBlocks,
    pi_boundary: np.ndarray,
    pi_block0: np.ndarray,
    pi_block1: np.ndarray,
    R: Optional[np.ndarray],
    tail_sum: Optional[np.ndarray],
    scalar: Optional[float],
) -> Dict[str, float]:
    """Mean queue-length / waiting / sojourn metrics from the stationary vectors.

    The sums over the infinite repeating blocks use, with
    ``tail_sum = (I - R)^{-1}``,

    .. math:: \\sum_{q \\ge 1} \\pi_q = \\pi_1 (I - R)^{-1}, \\qquad
              \\sum_{q \\ge 1} (q - 1) \\pi_q = \\pi_1 (I - R)^{-2} R

    (or the scalar analogues when ``pi_{q+1} = sigma^N pi_q``).
    """
    model = blocks.model
    partition = blocks.partition
    num_servers = model.num_servers

    boundary_totals = partition.boundary_array.sum(axis=1).astype(float)
    boundary_waiting = np.maximum(partition.boundary_array - 1, 0).sum(axis=1).astype(float)
    block0_totals = partition.block0_array.sum(axis=1).astype(float)
    block1_totals = block0_totals + num_servers

    mean_jobs = float(pi_boundary @ boundary_totals + pi_block0 @ block0_totals)
    mean_waiting_jobs = float(
        pi_boundary @ boundary_waiting + pi_block0 @ (block0_totals - num_servers)
    )

    if R is not None:
        ones = np.ones(blocks.block_size)
        tail_mass_vector = pi_block1 @ tail_sum                 # sum_{q>=1} pi_q
        extra_levels = tail_mass_vector @ tail_sum @ R          # sum_{q>=1} (q-1) pi_q
        tail_jobs = float(tail_mass_vector @ block1_totals + num_servers * (extra_levels @ ones))
        tail_mass = float(tail_mass_vector @ ones)
    else:
        sigma_n = float(scalar)
        tail_mass = float(pi_block1.sum()) / (1.0 - sigma_n)
        # sum_{q>=1} (q-1) sigma_n^(q-1) = sigma_n / (1 - sigma_n)^2
        extra_level_mass = float(pi_block1.sum()) * sigma_n / (1.0 - sigma_n) ** 2
        tail_jobs = float((pi_block1 @ block1_totals) / (1.0 - sigma_n) + num_servers * extra_level_mass)

    mean_jobs += tail_jobs
    mean_waiting_jobs += tail_jobs - num_servers * tail_mass

    arrival_rate = model.total_arrival_rate
    mean_waiting_time = mean_waiting_jobs / arrival_rate
    mean_sojourn_time = mean_waiting_time + 1.0 / model.service_rate

    return {
        "mean_jobs": mean_jobs,
        "mean_waiting_jobs": mean_waiting_jobs,
        "mean_waiting_time": mean_waiting_time,
        "mean_sojourn_time": mean_sojourn_time,
    }


"""High-level bounds API: the paper's QBD bracket and asymptote in one call.

:func:`analyze_sqd` is the core entry point of the library: given the model
parameters it produces the lower bound (Theorem 3 scalar form by default),
the upper bound (Theorem 1, when stable) and the asymptotic approximation
(Eq. 16).  It backs the ``qbd_bounds`` backend, the grid and scale-study
brackets and the Figure 10 harness.  Simulated and exact numbers come from
the backend layer instead: ``repro.run(spec, backend="fleet")`` and
``repro.run(spec, backend="exact")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.asymptotic import asymptotic_delay
from repro.core.bound_models import LowerBoundModel, UpperBoundModel
from repro.core.improved_lower import solve_improved_lower_bound
from repro.core.model import SQDModel
from repro.core.qbd_solver import (
    BoundModelSolution,
    SolutionMethod,
    UnstableBoundModelError,
    solve_bound_model,
)
from repro.core.solver_cache import bound_solve_key, solver_cache
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class DelayAnalysis:
    """The QBD delay bracket and the asymptote of one SQ(d) configuration."""

    model: SQDModel
    threshold: int
    lower_bound: BoundModelSolution
    upper_bound: Optional[BoundModelSolution]
    upper_bound_unstable: bool
    asymptotic_delay: float

    @property
    def lower_delay(self) -> float:
        return self.lower_bound.mean_delay

    @property
    def upper_delay(self) -> Optional[float]:
        return None if self.upper_bound is None else self.upper_bound.mean_delay

    def summary_row(self) -> dict:
        """One flat record per configuration (the rows of ``repro-lb sweep``)."""
        return {
            "N": self.model.num_servers,
            "d": self.model.d,
            "utilization": self.model.utilization,
            "T": self.threshold,
            "lower_bound": self.lower_delay,
            "upper_bound": self.upper_delay,
            "asymptotic": self.asymptotic_delay,
        }


def analyze_sqd(
    num_servers: int,
    d: int,
    utilization: float,
    threshold: int = 3,
    service_rate: float = 1.0,
) -> DelayAnalysis:
    """Bound the mean delay of one SQ(d) configuration (Theorems 1 and 3).

    Parameters
    ----------
    num_servers : int
        Pool size ``N`` of the SQ(d) model of Section II.
    d : int
        Number of servers polled per arrival (``1 <= d <= N``).
    utilization : float
        Per-server traffic intensity ``rho = lambda / mu`` (dimensionless,
        strictly below 1) — *not* the raw arrival rate; the total arrival
        rate is ``rho * mu * N``.
    threshold : int
        The imbalance threshold ``T`` of the bound models.  Larger ``T``
        gives tighter (especially upper) bounds at an exponentially growing
        block size ``C(N+T-1, T)``.
    service_rate : float
        Per-server service rate ``mu`` in jobs per time unit; all reported
        delays are in units of ``1/mu`` (mean service times).

    Returns
    -------
    DelayAnalysis
        The Theorem 3 (scalar-geometric) lower bound, the Theorem 1 upper
        bound (``None`` when its drift condition fails) and the asymptotic
        delay of Eq. (16) — every delay a mean sojourn time in units of
        ``1/mu``.

    Both bound solves go through the process-wide
    :func:`repro.core.solver_cache.solver_cache`, so sweeps and grids solve
    each distinct ``(system, policy)`` configuration once; cached results
    are bitwise those of a fresh solve.  ``solver_cache().clear()`` forces
    a fresh solve.
    """
    check_integer("threshold", threshold, minimum=1)
    model = SQDModel(num_servers=num_servers, d=d, utilization=utilization, service_rate=service_rate)
    model.require_stable()

    def _solve_lower() -> BoundModelSolution:
        blocks = LowerBoundModel(model, threshold).qbd_blocks()
        return solve_improved_lower_bound(model, threshold, blocks=blocks)

    def _solve_upper() -> Optional[BoundModelSolution]:
        # Instability is an outcome of the configuration, not an error:
        # cache it like a solution so sweeps don't re-attempt it per point.
        blocks = UpperBoundModel(model, threshold).qbd_blocks()
        try:
            return solve_bound_model(blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        except UnstableBoundModelError:
            return None

    def _key(bound: str):
        return bound_solve_key(
            bound,
            num_servers=model.num_servers,
            d=model.d,
            utilization=model.utilization,
            service_rate=model.service_rate,
            threshold=threshold,
        )

    cache = solver_cache()
    lower_solution = cache.get_or_compute(_key("lower"), _solve_lower)
    upper_solution = cache.get_or_compute(_key("upper"), _solve_upper)

    return DelayAnalysis(
        model=model,
        threshold=threshold,
        lower_bound=lower_solution,
        upper_bound=upper_solution,
        upper_bound_unstable=upper_solution is None,
        asymptotic_delay=asymptotic_delay(utilization, d),
    )

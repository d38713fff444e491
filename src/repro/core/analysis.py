"""High-level analysis API: bounds, asymptotics, simulation and exact oracle in one call.

:func:`analyze_sqd` is the main entry point of the library: given the model
parameters it produces the lower bound (Theorem 3 scalar form by default),
the upper bound (Theorem 1, when stable), the asymptotic approximation
(Eq. 16) and — optionally — a simulation estimate and the exact truncated
solution.  The examples and the Figure 10 harness are thin wrappers around
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.asymptotic import asymptotic_delay
from repro.core.bound_models import LowerBoundModel, UpperBoundModel
from repro.core.exact import ExactSolution, solve_exact_truncated
from repro.core.improved_lower import solve_improved_lower_bound
from repro.core.model import SQDModel
from repro.core.qbd_solver import (
    BoundModelSolution,
    SolutionMethod,
    UnstableBoundModelError,
    solve_bound_model,
)
from repro.core.solver_cache import bound_solve_key, solver_cache
from repro.fleet.engine import FleetResult, simulate_fleet
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class DelayAnalysis:
    """Everything the library knows about the mean delay of one SQ(d) configuration."""

    model: SQDModel
    threshold: int
    lower_bound: BoundModelSolution
    upper_bound: Optional[BoundModelSolution]
    upper_bound_unstable: bool
    asymptotic_delay: float
    simulation: Optional[FleetResult] = None
    exact: Optional[ExactSolution] = None

    @property
    def lower_delay(self) -> float:
        return self.lower_bound.mean_delay

    @property
    def upper_delay(self) -> Optional[float]:
        return None if self.upper_bound is None else self.upper_bound.mean_delay

    @property
    def simulated_delay(self) -> Optional[float]:
        return None if self.simulation is None else self.simulation.mean_delay

    @property
    def exact_delay(self) -> Optional[float]:
        return None if self.exact is None else self.exact.mean_delay

    def summary_row(self) -> dict:
        """One flat record per configuration (used by the experiment harnesses)."""
        return {
            "N": self.model.num_servers,
            "d": self.model.d,
            "utilization": self.model.utilization,
            "T": self.threshold,
            "lower_bound": self.lower_delay,
            "upper_bound": self.upper_delay,
            "asymptotic": self.asymptotic_delay,
            "simulation": self.simulated_delay,
            "exact": self.exact_delay,
        }


def analyze_sqd(
    num_servers: int,
    d: int,
    utilization: float,
    threshold: int = 3,
    service_rate: float = 1.0,
    lower_bound_method: SolutionMethod | str = SolutionMethod.SCALAR_GEOMETRIC,
    compute_upper_bound: bool = True,
    run_simulation: bool = False,
    simulation_events: int = 200_000,
    simulation_seed: Optional[int] = 12345,
    compute_exact: bool = False,
    exact_buffer: int = 30,
    use_cache: bool = True,
) -> DelayAnalysis:
    """Analyze one SQ(d) configuration with every method the library offers.

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
    lower_bound_method : SolutionMethod or str
        ``SCALAR_GEOMETRIC`` (Theorem 3, default) or ``MATRIX_GEOMETRIC``
        (Theorem 1); both agree to numerical precision.
    compute_upper_bound : bool
        Solve the upper bound model too (skipped automatically when its
        drift condition fails; ``upper_bound`` is then ``None``).
    run_simulation : bool
        Also estimate the delay by simulating the SQ(d) chain with the
        fleet engine (:func:`repro.fleet.engine.simulate_fleet`) for
        ``simulation_events`` events with ``simulation_seed``.
    compute_exact : bool
        Also solve the buffer-truncated original chain (small ``N`` only),
        with ``exact_buffer`` jobs of head-room per server.
    use_cache : bool
        Route the (deterministic) QBD bound solves through the process-wide
        :func:`repro.core.solver_cache.solver_cache`, so sweeps and grids
        solve each distinct ``(system, policy)`` configuration once.
        Cached and uncached results are bitwise identical; pass ``False``
        to force a fresh solve.

    Returns
    -------
    DelayAnalysis
        Lower/upper bound solutions, the asymptotic delay of Eq. (16), and
        the optional simulation / exact estimates — every delay a mean
        sojourn time in units of ``1/mu``.
    """
    check_integer("threshold", threshold, minimum=1)
    model = SQDModel(num_servers=num_servers, d=d, utilization=utilization, service_rate=service_rate)
    model.require_stable()

    if isinstance(lower_bound_method, str):
        lower_bound_method = SolutionMethod(lower_bound_method)

    def _solve_lower() -> BoundModelSolution:
        blocks = LowerBoundModel(model, threshold).qbd_blocks()
        if lower_bound_method is SolutionMethod.SCALAR_GEOMETRIC:
            return solve_improved_lower_bound(model, threshold, blocks=blocks)
        return solve_bound_model(blocks, method=SolutionMethod.MATRIX_GEOMETRIC)

    def _solve_upper() -> Optional[BoundModelSolution]:
        # Instability is an outcome of the configuration, not an error:
        # cache it like a solution so sweeps don't re-attempt it per point.
        blocks = UpperBoundModel(model, threshold).qbd_blocks()
        try:
            return solve_bound_model(blocks, method=SolutionMethod.MATRIX_GEOMETRIC)
        except UnstableBoundModelError:
            return None

    def _key(bound: str, method: Optional[str]):
        return bound_solve_key(
            bound,
            num_servers=model.num_servers,
            d=model.d,
            utilization=model.utilization,
            service_rate=model.service_rate,
            threshold=threshold,
            method=method,
        )

    cache = solver_cache()
    if use_cache:
        lower_solution = cache.get_or_compute(
            _key("lower", lower_bound_method.value), _solve_lower
        )
    else:
        lower_solution = _solve_lower()

    upper_solution: Optional[BoundModelSolution] = None
    upper_unstable = False
    if compute_upper_bound:
        if use_cache:
            upper_solution = cache.get_or_compute(_key("upper", None), _solve_upper)
        else:
            upper_solution = _solve_upper()
        upper_unstable = upper_solution is None

    simulation = None
    if run_simulation:
        simulation = simulate_fleet(
            num_servers=num_servers,
            d=d,
            utilization=utilization,
            service_rate=service_rate,
            num_events=simulation_events,
            seed=simulation_seed,
        )

    exact = None
    if compute_exact:
        exact = solve_exact_truncated(model, buffer_size=exact_buffer)

    return DelayAnalysis(
        model=model,
        threshold=threshold,
        lower_bound=lower_solution,
        upper_bound=upper_solution,
        upper_bound_unstable=upper_unstable,
        asymptotic_delay=asymptotic_delay(utilization, d),
        simulation=simulation,
        exact=exact,
    )

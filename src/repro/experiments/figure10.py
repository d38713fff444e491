"""Figure 10: average delay versus utilization for SQ(2).

Each panel of the paper's Figure 10 plots four curves over a utilization
sweep for SQ(2): the upper bound (Theorem 1), simulations of the true
system, the lower bound (Theorems 1/3) and the asymptotic approximation
(Eq. 16).  The panels differ in the number of servers and the threshold:

* (a) N = 3, T = 2
* (b) N = 3, T = 3
* (c) N = 6, T = 3
* (d) N = 12, T = 3

Utilizations where the upper bound model violates its drift (stability)
condition are reported as ``inf`` — this is the "different values of T change
the stability condition for the SQ(d) upper bound" effect discussed in
Section V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.spec import ExperimentSpec
from repro.core.analysis import analyze_sqd
from repro.core.qbd_solver import SolutionMethod
from repro.ensemble.runner import EnsembleConfig, run_ensembles
from repro.utils.tables import format_series
from repro.utils.validation import check_integer

DEFAULT_UTILIZATIONS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class Figure10Config:
    """Parameters of one Figure 10 panel.

    Parameters
    ----------
    num_servers, threshold, d :
        Panel shape: pool size ``N``, bound threshold ``T``, poll count ``d``.
    utilizations : sequence of float
        The swept per-server loads ``rho = lambda / mu`` (dimensionless).
    simulation_events : int
        Simulated events per replication.
    replications : int
        Independent simulation replications per utilization (>= 2 adds
        confidence half-widths to the simulation curve).
    workers : int
        Worker processes the replications fan out over.
    confidence : float
        Two-sided confidence level of the reported half-widths.
    """

    num_servers: int
    threshold: int
    d: int = 2
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS
    simulation_events: int = 200_000
    seed: int = 20160627
    run_simulation: bool = True
    lower_bound_method: SolutionMethod = SolutionMethod.SCALAR_GEOMETRIC
    replications: int = 1
    workers: int = 1
    confidence: float = 0.95

    def __post_init__(self) -> None:
        check_integer("num_servers", self.num_servers, minimum=2)
        check_integer("threshold", self.threshold, minimum=1)
        check_integer("d", self.d, minimum=1, maximum=self.num_servers)
        check_integer("replications", self.replications, minimum=1)
        check_integer("workers", self.workers, minimum=1)


@dataclass(frozen=True)
class Figure10Result:
    """The four delay curves of one panel (delays in units of ``1/mu``).

    ``simulation_half_width`` carries the per-utilization confidence
    half-width of the simulation curve (``nan`` with one replication).
    """

    config: Figure10Config
    utilizations: List[float]
    lower_bound: List[float]
    upper_bound: List[float]
    simulation: List[float]
    asymptotic: List[float]
    simulation_half_width: List[float] = field(default_factory=list)

    def series(self) -> Dict[str, List[float]]:
        columns = {
            "upper": self.upper_bound,
            "simulation": self.simulation,
            "lower": self.lower_bound,
            "asymptotic": self.asymptotic,
        }
        if self.config.replications >= 2 and self.config.run_simulation:
            columns["sim ±CI"] = self.simulation_half_width
        return columns

    def as_table(self) -> str:
        config = self.config
        return format_series(
            self.series(),
            x_label="utilization",
            x_values=self.utilizations,
            title=(
                f"Figure 10 (N={config.num_servers}, d={config.d}, T={config.threshold}): "
                "average delay vs utilization"
            ),
        )

    def sandwich_holds(self, slack: float = 0.0) -> bool:
        """Check lower <= simulation <= upper on every point where all are finite."""
        for low, sim, high in zip(self.lower_bound, self.simulation, self.upper_bound):
            if math.isnan(sim):
                continue
            if low > sim * (1.0 + slack):
                return False
            if math.isfinite(high) and sim > high * (1.0 + slack):
                return False
        return True


def run_figure10(config: Figure10Config) -> Figure10Result:
    """Run the utilization sweep for one panel of Figure 10.

    Bounds and asymptotics come from :func:`analyze_sqd`; the simulation
    curve runs as one session of ensembles
    (:func:`repro.ensemble.runner.run_ensembles`), so each point is the mean
    of ``config.replications`` independent fleet simulations with a
    Student-t confidence half-width alongside.
    """
    lower: List[float] = []
    upper: List[float] = []
    asymptotic: List[float] = []
    utilizations = [float(u) for u in config.utilizations]
    for utilization in utilizations:
        analysis = analyze_sqd(
            num_servers=config.num_servers,
            d=config.d,
            utilization=utilization,
            threshold=config.threshold,
            lower_bound_method=config.lower_bound_method,
            compute_upper_bound=True,
            run_simulation=False,
        )
        lower.append(analysis.lower_delay)
        upper.append(analysis.upper_delay if analysis.upper_delay is not None else math.inf)
        asymptotic.append(analysis.asymptotic_delay)

    simulated = [math.nan] * len(utilizations)
    half_widths = [math.nan] * len(utilizations)
    if config.run_simulation:
        ensembles = run_ensembles(
            [
                EnsembleConfig(
                    spec=ExperimentSpec.create(
                        num_servers=config.num_servers,
                        d=config.d,
                        utilization=utilization,
                        num_events=config.simulation_events,
                        seed=config.seed + index,
                    ),
                    backend="fleet",
                    replications=config.replications,
                    workers=config.workers,
                    confidence=config.confidence,
                )
                for index, utilization in enumerate(utilizations)
            ]
        )
        simulated = [ensemble.delay.mean for ensemble in ensembles]
        half_widths = [ensemble.delay.half_width for ensemble in ensembles]

    return Figure10Result(
        config=config,
        utilizations=utilizations,
        lower_bound=lower,
        upper_bound=upper,
        simulation=simulated,
        asymptotic=asymptotic,
        simulation_half_width=half_widths,
    )


def panel_config(
    panel: str,
    simulation_events: int = 200_000,
    utilizations: Optional[Sequence[float]] = None,
    replications: int = 1,
    workers: int = 1,
) -> Figure10Config:
    """Named configurations for the paper's four panels ('a', 'b', 'c', 'd')."""
    panels = {
        "a": (3, 2),
        "b": (3, 3),
        "c": (6, 3),
        "d": (12, 3),
    }
    if panel not in panels:
        raise ValueError(f"unknown Figure 10 panel {panel!r}; expected one of {sorted(panels)}")
    num_servers, threshold = panels[panel]
    kwargs = {}
    if utilizations is not None:
        kwargs["utilizations"] = tuple(utilizations)
    return Figure10Config(
        num_servers=num_servers,
        threshold=threshold,
        simulation_events=simulation_events,
        replications=replications,
        workers=workers,
        **kwargs,
    )

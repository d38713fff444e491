"""Figure 9: relative error of the asymptotic delay against finite-N simulation.

The paper plots, for utilizations ``rho = 0.75`` (panel a) and ``rho = 0.95``
(panel b), the relative error (in percent) of Mitzenmacher's asymptotic delay
(Eq. 16) with respect to simulations of the true finite-``N`` SQ(d) system,
for ``d in {2, 5, 10, 25, 50}`` and a range of ``N`` up to 250.  The paper's
simulations use 10^8 jobs per point; the default here is far smaller so the
sweep finishes in seconds, and ``num_events`` can be raised to match the
paper's precision.

Every point is an ensemble, and the whole sweep runs as one session
(:func:`repro.ensemble.runner.run_ensembles`): with ``replications >= 2``
each simulated delay carries a Student-t confidence half-width, the
replications of every point fan out over one pool of ``workers``
processes, and the table shows the error bars the paper's point estimates
lack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.spec import ExperimentSpec
from repro.core.asymptotic import asymptotic_delay, relative_error_percent
from repro.ensemble.runner import EnsembleConfig, run_ensembles
from repro.utils.tables import format_series
from repro.utils.validation import check_in_range, check_integer

DEFAULT_CHOICES: Tuple[int, ...] = (2, 5, 10, 25, 50)
DEFAULT_SERVER_COUNTS: Tuple[int, ...] = (10, 25, 50, 75, 100, 150, 200, 250)


@dataclass(frozen=True)
class Figure9Config:
    """Parameters of one Figure 9 panel.

    Parameters
    ----------
    utilization : float
        Per-server load ``rho = lambda / mu`` (dimensionless, < 1).
    choices : sequence of int
        The swept poll counts ``d``.
    server_counts : sequence of int
        The swept pool sizes ``N``; values below ``d`` are skipped.
    num_events : int
        Simulated events per replication.
    seed : int
        Base seed; each ``(d, N)`` point derives an independent ensemble.
    replications : int
        Independent replications per point (1 reproduces the paper's bare
        point estimates; >= 2 adds confidence intervals).
    workers : int
        Worker processes the replications fan out over.
    confidence : float
        Two-sided confidence level of the reported half-widths.
    """

    utilization: float
    choices: Sequence[int] = DEFAULT_CHOICES
    server_counts: Sequence[int] = DEFAULT_SERVER_COUNTS
    num_events: int = 200_000
    seed: int = 20160627  # ICDCS 2016 opening day, for reproducibility
    replications: int = 1
    workers: int = 1
    confidence: float = 0.95

    def __post_init__(self) -> None:
        check_in_range("utilization", self.utilization, 0.0, 0.999)
        check_integer("num_events", self.num_events, minimum=1000)
        check_integer("replications", self.replications, minimum=1)
        check_integer("workers", self.workers, minimum=1)
        for d in self.choices:
            check_integer("d", d, minimum=1)
        for n in self.server_counts:
            check_integer("N", n, minimum=1)


@dataclass(frozen=True)
class Figure9Result:
    """Relative error series, one per value of ``d``.

    ``delay_half_widths`` maps each ``d`` to the per-``N`` confidence
    half-widths of the simulated delay (``nan`` with a single replication).
    """

    config: Figure9Config
    simulated_delays: Dict[int, List[float]]
    relative_errors: Dict[int, List[float]]
    asymptotic_delays: Dict[int, float]
    delay_half_widths: Dict[int, List[float]] = field(default_factory=dict)

    def server_counts_for(self, d: int) -> List[int]:
        """The N values actually swept for a given ``d`` (only ``N >= d``)."""
        return [n for n in self.config.server_counts if n >= d]

    def as_table(self) -> str:
        """Render the panel as one aligned text table (rows = N, columns = d).

        With ``replications >= 2`` each error column is followed by a
        ``±err%`` column: the confidence half-width of the simulated delay,
        expressed in the same relative-percent units as the error itself.
        """
        server_counts = list(self.config.server_counts)
        with_bars = self.config.replications >= 2
        series = {}
        for d in self.config.choices:
            swept = self.server_counts_for(d)
            errors = dict(zip(swept, self.relative_errors[d]))
            series[f"d={d} err%"] = [errors.get(n, float("nan")) for n in server_counts]
            if with_bars:
                delays = dict(zip(swept, self.simulated_delays[d]))
                halves = dict(zip(swept, self.delay_half_widths.get(d, [])))
                series[f"d={d} ±err%"] = [
                    100.0 * halves.get(n, float("nan")) / delays.get(n, float("nan"))
                    for n in server_counts
                ]
        title = (
            f"Figure 9 (rho={self.config.utilization}): relative error (%) of the asymptotic "
            f"delay vs simulation ({self.config.num_events} events/point"
        )
        if with_bars:
            title += (
                f", {self.config.replications} replications, "
                f"{self.config.confidence:.0%} CI half-widths"
            )
        title += ")"
        return format_series(
            series,
            x_label="N",
            x_values=server_counts,
            title=title,
        )


def run_figure9(config: Figure9Config) -> Figure9Result:
    """Run the Figure 9 sweep for one utilization level.

    Every ``(d, N)`` point is an independent ensemble of
    ``config.replications`` fleet simulations; the reported delay is the
    across-replication mean and the relative error is computed against it.
    """
    points = [(d, n) for d in config.choices for n in config.server_counts if n >= d]
    ensembles = run_ensembles(
        [
            EnsembleConfig(
                spec=ExperimentSpec.create(
                    num_servers=n,
                    d=d,
                    utilization=config.utilization,
                    num_events=config.num_events,
                    seed=config.seed + 1000 * d + n,
                ),
                backend="fleet",
                replications=config.replications,
                workers=config.workers,
                confidence=config.confidence,
            )
            for d, n in points
        ]
    )
    asymptotics = {d: asymptotic_delay(config.utilization, d) for d in config.choices}
    simulated: Dict[int, List[float]] = {d: [] for d in config.choices}
    errors: Dict[int, List[float]] = {d: [] for d in config.choices}
    half_widths: Dict[int, List[float]] = {d: [] for d in config.choices}
    for (d, _), ensemble in zip(points, ensembles):
        statistics = ensemble.delay
        simulated[d].append(statistics.mean)
        errors[d].append(relative_error_percent(asymptotics[d], statistics.mean))
        half_widths[d].append(statistics.half_width)
    return Figure9Result(
        config=config,
        simulated_delays=simulated,
        relative_errors=errors,
        asymptotic_delays=asymptotics,
        delay_half_widths=half_widths,
    )


def figure9a_config(num_events: int = 200_000, server_counts: Optional[Sequence[int]] = None) -> Figure9Config:
    """Panel (a): moderate-high utilization rho = 0.75."""
    return Figure9Config(
        utilization=0.75,
        num_events=num_events,
        server_counts=tuple(server_counts) if server_counts is not None else DEFAULT_SERVER_COUNTS,
    )


def figure9b_config(num_events: int = 200_000, server_counts: Optional[Sequence[int]] = None) -> Figure9Config:
    """Panel (b): very high utilization rho = 0.95."""
    return Figure9Config(
        utilization=0.95,
        num_events=num_events,
        server_counts=tuple(server_counts) if server_counts is not None else DEFAULT_SERVER_COUNTS,
    )

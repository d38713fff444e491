"""Scale study: bounds vs asymptotics vs fleet simulation as N sweeps decades.

The paper's message is that the asymptotic delay (Eq. 16) misleads at finite
``N`` and its bounds repair that — but the repo could never *show* the
crossover, because neither simulator reached beyond a few hundred servers.
The occupancy engine (:mod:`repro.fleet.engine`) makes the sweep over
``N = 10^2 .. 10^5+`` cheap, so this harness lines up three estimates per
pool size:

* the fleet simulation (exact finite-``N`` law of SQ(d)), replicated into an
  ensemble so the estimate carries a confidence interval,
* the asymptotic / mean-field prediction (``N``-independent),
* the paper's QBD lower/upper bounds, for the small ``N`` where their
  ``C(N+T-1, T)``-sized blocks stay tractable.

The relative error column reproduces Figure 9's decay towards zero, now
extended three decades further than the paper's own simulations — and with
``replications >= 2`` the decay is distinguishable from simulation noise,
because each point reports a Student-t half-width next to its mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.api.spec import ExperimentSpec
from repro.core.analysis import analyze_sqd
from repro.core.asymptotic import asymptotic_delay, relative_error_percent
from repro.ensemble.runner import EnsembleConfig, EnsembleResult, run_ensembles
from repro.utils.tables import format_table
from repro.utils.validation import check_in_range, check_integer

__all__ = ["ScaleStudyConfig", "ScaleStudyResult", "run_scale_study"]

DEFAULT_SERVER_COUNTS: Tuple[int, ...] = (100, 1_000, 10_000, 100_000)


@dataclass(frozen=True)
class ScaleStudyConfig:
    """Parameters of one scale sweep.

    Parameters
    ----------
    server_counts : sequence of int
        Pool sizes ``N`` to sweep (each at least ``d``).
    d : int
        Number of servers polled per arrival.
    utilization : float
        Per-server load ``rho = lambda / mu`` (dimensionless, < 1).
    threshold : int
        Imbalance threshold ``T`` of the QBD bound models.
    num_events : int
        Simulated events per replication.
    seed : int
        Base seed; pool size ``i`` runs ensemble seed ``seed + i``.
    bounds_max_servers : int
        Largest ``N`` for which the QBD bounds are solved.
    policy : str
        Dispatching policy: ``"sqd"``, ``"jsq"`` or ``"random"``.
    replications : int
        Independent replications per pool size (>= 2 adds CI half-widths).
    workers : int
        Worker processes the replications fan out over.
    confidence : float
        Two-sided confidence level of the reported half-widths.
    """

    server_counts: Sequence[int] = DEFAULT_SERVER_COUNTS
    d: int = 2
    utilization: float = 0.9
    threshold: int = 3
    num_events: int = 500_000
    seed: int = 20160627
    bounds_max_servers: int = 12
    policy: str = "sqd"
    replications: int = 1
    workers: int = 1
    confidence: float = 0.95

    def __post_init__(self) -> None:
        check_in_range("utilization", self.utilization, 0.0, 0.999)
        check_integer("d", self.d, minimum=1)
        check_integer("num_events", self.num_events, minimum=1000)
        check_integer("threshold", self.threshold, minimum=1)
        check_integer("bounds_max_servers", self.bounds_max_servers, minimum=0)
        check_integer("replications", self.replications, minimum=1)
        check_integer("workers", self.workers, minimum=1)
        for n in self.server_counts:
            check_integer("N", n, minimum=self.d)


@dataclass(frozen=True)
class ScaleStudyResult:
    """One record per pool size, plus the shared asymptote.

    ``fleet_results`` holds the full :class:`EnsembleResult` per pool size
    (every replication record, in order), so the study can be re-summarized
    at a different confidence level without re-simulating.
    """

    config: ScaleStudyConfig
    records: List[Dict[str, object]] = field(default_factory=list)
    fleet_results: Tuple[EnsembleResult, ...] = ()

    @property
    def asymptotic(self) -> float:
        return asymptotic_delay(self.config.utilization, self.config.d)

    def column(self, name: str) -> List[object]:
        return [record.get(name) for record in self.records]

    def as_table(self) -> str:
        headers = [
            "N",
            "fleet delay",
            f"±{self.config.confidence:.0%}",
            "asymptotic",
            "err%",
            "lower bound",
            "upper bound",
            "events/s",
        ]
        rows = []
        for record in self.records:
            half = record["delay_half_width"]
            rows.append(
                [
                    record["N"],
                    record["fleet_delay"],
                    half if isinstance(half, float) and math.isfinite(half) else "-",
                    record["asymptotic"],
                    record["relative_error_percent"],
                    record["lower_bound"] if record["lower_bound"] is not None else "-",
                    record["upper_bound"] if record["upper_bound"] is not None else "-",
                    f"{record['events_per_second']:,.0f}",
                ]
            )
        config = self.config
        title = (
            f"scale study: SQ({config.d}) at rho={config.utilization}, "
            f"{config.num_events} events/point x {config.replications} replications "
            f"(bounds for N <= {config.bounds_max_servers})"
        )
        return format_table(headers, rows, title=title)


def run_scale_study(config: ScaleStudyConfig) -> ScaleStudyResult:
    """Sweep the fleet simulator over ``config.server_counts``.

    The QBD bounds are solved only up to ``bounds_max_servers`` — their
    block size grows combinatorially in ``N``, which is the very limitation
    the occupancy engine routes around.  Each pool size is an ensemble of
    ``config.replications`` fleet simulations; all of them run as one
    session over one pool of ``config.workers`` processes.
    """
    records: List[Dict[str, object]] = []
    asymptote = asymptotic_delay(config.utilization, config.d)
    counts = list(config.server_counts)
    ensembles = run_ensembles(
        [
            EnsembleConfig(
                spec=ExperimentSpec.create(
                    num_servers=num_servers,
                    d=config.d,
                    utilization=config.utilization,
                    num_events=config.num_events,
                    policy=config.policy,
                    seed=config.seed + index,
                ),
                backend="fleet",
                replications=config.replications,
                workers=config.workers,
                confidence=config.confidence,
            )
            for index, num_servers in enumerate(counts)
        ]
    )
    for index, num_servers in enumerate(counts):
        ensemble = ensembles[index]
        delay = ensemble.delay
        lower = upper = None
        if num_servers <= config.bounds_max_servers and config.policy == "sqd":
            analysis = analyze_sqd(
                num_servers=num_servers,
                d=config.d,
                utilization=config.utilization,
                threshold=config.threshold,
            )
            lower = analysis.lower_delay
            upper = analysis.upper_delay
        events_per_second = ensemble.statistics("events_per_second").mean
        records.append(
            {
                "N": num_servers,
                "d": config.d,
                "utilization": config.utilization,
                "fleet_delay": delay.mean,
                "delay_half_width": delay.half_width,
                "replications": delay.n,
                "asymptotic": asymptote,
                "relative_error_percent": relative_error_percent(asymptote, delay.mean),
                "lower_bound": lower,
                "upper_bound": upper,
                "events_per_second": events_per_second,
                "mean_queue_length": ensemble.statistics("mean_queue_length").mean,
            }
        )
    return ScaleStudyResult(config=config, records=records, fleet_results=tuple(ensembles))

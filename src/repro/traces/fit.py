"""Fit analyzable arrival models to a measured trace.

The bridge from measurement to analysis: a trace only *replays* (through the
cluster simulator), but a fitted model reaches every analytical tool in the
repository — Theorem 2's sigma root, the MAP/PH/1 building block, sweeps and
ensembles.  Three families are supported, all matched on the burstiness
statistics of :mod:`repro.traces.stats`:

* **MMPP2** — the two-state Markov-modulated Poisson process
  (:meth:`~repro.markov.arrival_processes.MarkovianArrivalProcess.mmpp2`),
  matched on rate, interarrival SCV, lag-1 autocorrelation and (when the
  trace exposes one) the index of dispersion for counts.  The only family
  that captures *correlated* burstiness.
* **Hyperexponential** — balanced two-phase renewal fit on rate + SCV
  (``SCV >= 1``): bursty but uncorrelated.
* **Erlang** — ``stages = round(1 / SCV)`` for smoother-than-Poisson
  traces (``SCV < 1``).

Every fit returns a :class:`TraceFit` carrying both the fitted process (at
the trace's rate) and the spec-layer :class:`~repro.api.spec.DistributionSpec`
(shape only, normalized to unit rate), plus target-vs-achieved diagnostics —
so ``repro-lb trace fit`` can print exactly how faithful the model is before
anyone trusts a delay number computed from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.api.spec import DistributionSpec
from repro.markov.arrival_processes import (
    ArrivalProcess,
    MarkovianArrivalProcess,
    PoissonArrivals,
    RenewalArrivals,
)
from repro.markov.service_distributions import ErlangService, HyperexponentialService
from repro.traces.stats import BurstinessSummary, summarize_trace
from repro.traces.trace import ArrivalTrace, TraceError
from repro.utils.tables import format_table

__all__ = [
    "TraceFitError",
    "TraceFit",
    "FAMILIES",
    "fit_poisson",
    "fit_erlang",
    "fit_hyperexponential",
    "fit_mmpp2",
    "fit_arrival",
]

#: Supported fit families, in the order ``family="auto"`` considers them.
FAMILIES = ("mmpp2", "hyperexponential", "erlang", "poisson")

#: Maximum Erlang stage count the fit will propose.
MAX_ERLANG_STAGES = 50

#: Relative mismatch beyond which an MMPP2 fit is reported as not converged.
MMPP2_TOLERANCE = 0.05


class TraceFitError(TraceError):
    """Raised when a family cannot represent (or be matched to) the trace."""


@dataclass(frozen=True)
class TraceFit:
    """One fitted arrival model plus its target-vs-achieved diagnostics.

    Attributes
    ----------
    family : str
        One of :data:`FAMILIES`.
    arrival : DistributionSpec
        The spec-layer shape (normalized to unit aggregate rate for
        ``mmpp2``); drop it into a :class:`~repro.api.spec.WorkloadSpec`
        and the engines rebuild the process at any load.
    process : ArrivalProcess
        The fitted process at the *trace's* rate — feed it to
        :func:`~repro.markov.arrival_processes.solve_sigma`,
        :func:`~repro.markov.map_ph_queue.solve_map_ph_1` or a simulator.
    target, achieved : mapping
        The trace statistics the fit aimed for and the fitted model's
        analytic values of the same statistics.
    matched : tuple of str
        The statistics this family actually matches (a renewal fit matches
        rate and SCV but structurally cannot match a lag correlation);
        :attr:`max_relative_error` only looks at these, so an unmatched
        statistic informs without condemning the fit.
    converged : bool
        Whether every matched statistic landed within tolerance.
    """

    family: str
    arrival: DistributionSpec
    process: ArrivalProcess
    target: Mapping[str, float]
    achieved: Mapping[str, float]
    matched: Tuple[str, ...]
    converged: bool

    @property
    def max_relative_error(self) -> float:
        """Largest relative target/achieved mismatch across *matched* statistics."""
        worst = 0.0
        for key in self.matched:
            if key not in self.target or key not in self.achieved:
                continue
            scale = max(abs(self.target[key]), 1e-9)
            worst = max(worst, abs(self.achieved[key] - self.target[key]) / scale)
        return worst

    def as_table(self) -> str:
        rows = []
        for key in sorted(set(self.target) | set(self.achieved)):
            label = f"{key} *" if key in self.matched else key
            rows.append(
                [label, self.target.get(key, "-"), self.achieved.get(key, "-")]
            )
        status = "converged" if self.converged else "NOT converged"
        return format_table(
            ["statistic", "trace", "fitted model"],
            rows,
            title=f"{self.family} fit ({status}, worst matched mismatch "
            f"{self.max_relative_error:.2%}; * = matched)",
        )

    def experiment_spec(
        self,
        num_servers: int,
        d: int = 2,
        policy: str = "sqd",
        service_rate: float = 1.0,
        service: str = "exponential",
        service_params: Optional[Mapping[str, Any]] = None,
        num_jobs: Optional[int] = None,
        seed: int = 12345,
        **options: Any,
    ):
        """A ready-to-run :class:`~repro.api.spec.ExperimentSpec` for this fit.

        The utilization is implied by the trace: ``rho = rate / (N mu)``.
        Raises :class:`TraceFitError` when the trace's rate overloads the
        requested pool (``rho >= 1``) — rescale the trace or grow ``N``.
        """
        from repro.api.spec import ExperimentSpec

        utilization = self.target["rate"] / (num_servers * service_rate)
        if not 0.0 < utilization < 1.0:
            raise TraceFitError(
                f"trace rate {self.target['rate']:.6g} implies utilization "
                f"{utilization:.4g} on N={num_servers} servers at mu={service_rate:g}; "
                "rho must lie in (0, 1) — rescale the trace or resize the pool"
            )
        return ExperimentSpec.create(
            num_servers=num_servers,
            d=d,
            utilization=utilization,
            service_rate=service_rate,
            arrival=self.arrival.name,
            arrival_params=dict(self.arrival.params),
            service=service,
            service_params=dict(service_params or {}),
            policy=policy,
            num_jobs=num_jobs,
            seed=seed,
            **options,
        )


def _summary_of(trace: Union[ArrivalTrace, BurstinessSummary]) -> BurstinessSummary:
    if isinstance(trace, BurstinessSummary):
        return trace
    if isinstance(trace, ArrivalTrace):
        return summarize_trace(trace)
    raise TraceFitError(
        f"fit input must be an ArrivalTrace or BurstinessSummary, got {trace!r}"
    )


# --------------------------------------------------------------------- #
# Renewal families (uncorrelated): moment matching in closed form
# --------------------------------------------------------------------- #
def fit_poisson(trace: Union[ArrivalTrace, BurstinessSummary]) -> TraceFit:
    """Rate-only fit: the memoryless baseline every other family refines."""
    summary = _summary_of(trace)
    return TraceFit(
        family="poisson",
        arrival=DistributionSpec("poisson"),
        process=PoissonArrivals(summary.rate),
        target={"rate": summary.rate, "scv": summary.scv, "lag1": summary.lag1},
        achieved={"rate": summary.rate, "scv": 1.0, "lag1": 0.0},
        matched=("rate",),
        converged=abs(summary.scv - 1.0) <= MMPP2_TOLERANCE,
    )


def fit_erlang(trace: Union[ArrivalTrace, BurstinessSummary]) -> TraceFit:
    """Erlang-``k`` renewal fit for smoother-than-Poisson traces (SCV <= 1).

    ``k = round(1 / SCV)`` (an Erlang-``k`` has SCV exactly ``1/k``), capped
    at :data:`MAX_ERLANG_STAGES`.
    """
    summary = _summary_of(trace)
    if summary.scv > 1.0:
        raise TraceFitError(
            f"Erlang can only represent SCV <= 1, trace has SCV = {summary.scv:.4g}; "
            "fit 'hyperexponential' or 'mmpp2' instead"
        )
    stages = int(min(MAX_ERLANG_STAGES, max(1, round(1.0 / max(summary.scv, 1e-9)))))
    process = RenewalArrivals(ErlangService(stages=stages, mean=1.0 / summary.rate))
    return TraceFit(
        family="erlang",
        arrival=DistributionSpec("erlang", {"stages": stages}),
        process=process,
        target={"rate": summary.rate, "scv": summary.scv, "lag1": summary.lag1},
        achieved={"rate": summary.rate, "scv": 1.0 / stages, "lag1": 0.0},
        matched=("rate", "scv"),
        converged=abs(1.0 / stages - summary.scv) <= MMPP2_TOLERANCE * max(summary.scv, 1e-9),
    )


def fit_hyperexponential(trace: Union[ArrivalTrace, BurstinessSummary]) -> TraceFit:
    """Balanced two-phase hyperexponential renewal fit (rate + SCV, SCV >= 1).

    Captures over-dispersion but *not* correlation: the fitted stream is
    renewal, so its lag-1 autocorrelation is zero however bursty the trace.
    """
    summary = _summary_of(trace)
    if summary.scv < 1.0:
        raise TraceFitError(
            f"a hyperexponential needs SCV >= 1, trace has SCV = {summary.scv:.4g}; "
            "fit 'erlang' instead"
        )
    scv = float(summary.scv)
    process = RenewalArrivals(
        HyperexponentialService.balanced_two_phase(mean=1.0 / summary.rate, scv=scv)
    )
    return TraceFit(
        family="hyperexponential",
        arrival=DistributionSpec("hyperexponential", {"scv": scv}),
        process=process,
        target={"rate": summary.rate, "scv": summary.scv, "lag1": summary.lag1},
        achieved={"rate": summary.rate, "scv": scv, "lag1": 0.0},
        matched=("rate", "scv"),
        converged=summary.lag1 <= MMPP2_TOLERANCE,
    )


# --------------------------------------------------------------------- #
# MMPP2: correlated burstiness
# --------------------------------------------------------------------- #
def _mmpp2_from_shape(r_high: float, r_low: float, theta: float) -> MarkovianArrivalProcess:
    """Unit-rate MMPP2 from the shape parameters the optimizer walks.

    ``r_high > 1 > r_low >= 0`` are the modulated rates and ``theta`` the
    total switching rate; the two switching rates are split so the
    stationary aggregate rate is exactly 1:
    ``s1 / s2 = (r_high - 1) / (1 - r_low)``.
    """
    spread = r_high - r_low
    switch_to_low = theta * (r_high - 1.0) / spread
    switch_to_high = theta * (1.0 - r_low) / spread
    return MarkovianArrivalProcess.mmpp2(
        rate_high=r_high,
        rate_low=r_low,
        switch_to_low=switch_to_low,
        switch_to_high=switch_to_high,
    )


def _mmpp2_statistics(process: MarkovianArrivalProcess) -> Dict[str, float]:
    return {
        "scv": process.interarrival_scv,
        "lag1": process.lag_autocorrelation(1),
        "idc": process.asymptotic_idc(),
    }


def fit_mmpp2(
    trace: Union[ArrivalTrace, BurstinessSummary],
    targets: Optional[Mapping[str, float]] = None,
) -> TraceFit:
    """Fit a two-state MMPP on rate, SCV, lag-1 autocorrelation and IDC.

    Parameters
    ----------
    trace : ArrivalTrace or BurstinessSummary
        The measurement (or its precomputed summary).
    targets : mapping, optional
        Override the matched statistics — keys ``scv``, ``lag1`` and
        optionally ``idc`` (the trace's rate is always matched exactly, by
        normalization).  Useful for fitting to analytic values in tests.

    Notes
    -----
    The optimizer walks a three-parameter shape — modulated rates
    ``r_high > 1 > r_low`` and total switching rate ``theta``, with the
    switching split fixed so the aggregate rate is exactly 1 — and matches
    the model's *analytic* statistics (closed MAP formulas, no simulation)
    to the trace's empirical ones with multi-start least squares.  The
    result is reported not-converged (rather than raising) when the worst
    relative mismatch exceeds 5% — MMPP2 has only three shape degrees of
    freedom, so a trace whose SCV, lag-1 and IDC are mutually inconsistent
    with *any* two-state modulation gets the closest member of the family,
    flagged.

    Raises
    ------
    TraceFitError
        When the trace is not bursty in the MMPP2 sense (``SCV <= 1`` or
        non-positive lag-1 autocorrelation): the family degenerates to
        Poisson there, and the renewal fits are the honest choice.
    """
    summary = _summary_of(trace)
    wanted: Dict[str, float] = {"scv": summary.scv, "lag1": summary.lag1}
    if summary.idc:
        wanted["idc"] = summary.max_idc
    if targets:
        unknown = set(targets) - {"scv", "lag1", "idc"}
        if unknown:
            raise TraceFitError(f"unknown MMPP2 fit targets: {sorted(unknown)}")
        wanted.update({key: float(value) for key, value in targets.items()})

    scv, lag1 = wanted["scv"], wanted["lag1"]
    if scv <= 1.0:
        raise TraceFitError(
            f"MMPP2 needs an over-dispersed trace (SCV > 1), got SCV = {scv:.4g}; "
            "fit 'erlang' (or 'poisson') instead"
        )
    if lag1 <= 0.0:
        raise TraceFitError(
            f"MMPP2 needs positively correlated interarrivals, got lag-1 = {lag1:.4g}; "
            "fit 'hyperexponential' instead"
        )
    # An MMPP2's IDC(inf) always exceeds its interarrival SCV (positive
    # correlations only); an inconsistent or missing target drops the IDC
    # residual rather than dragging the fit to an unreachable point.
    idc = wanted.get("idc")
    use_idc = idc is not None and idc > scv * 1.001

    def residuals(x: np.ndarray) -> np.ndarray:
        r_high = 1.0 + math.exp(x[0])
        r_low = 1.0 / (1.0 + math.exp(-x[1]))  # in (0, 1)
        theta = math.exp(x[2])
        try:
            model = _mmpp2_from_shape(r_high, r_low, theta)
            stats = _mmpp2_statistics(model)
        except Exception:
            return np.array([1e3, 1e3, 1e3])
        out = [
            math.log(max(stats["scv"], 1e-12) / scv),
            (stats["lag1"] - lag1) / max(lag1, 0.02),
        ]
        if use_idc:
            out.append(math.log(max(stats["idc"], 1e-12) / idc))
        else:
            out.append(0.0)
        return np.array(out)

    from scipy import optimize

    best = None
    spread_guess = math.sqrt(max(scv - 1.0, 0.1))
    for theta0 in (0.001, 0.01, 0.1, 1.0):
        x0 = np.array([math.log(max(spread_guess, 0.2)), 0.0, math.log(theta0)])
        try:
            solution = optimize.least_squares(
                residuals, x0, bounds=([-6.0, -12.0, -14.0], [8.0, 12.0, 6.0])
            )
        except Exception:
            continue
        if best is None or solution.cost < best.cost:
            best = solution
    if best is None:
        raise TraceFitError("MMPP2 moment matching failed to produce any candidate")

    r_high = 1.0 + math.exp(best.x[0])
    r_low = 1.0 / (1.0 + math.exp(-best.x[1]))
    theta = math.exp(best.x[2])
    unit = _mmpp2_from_shape(r_high, r_low, theta)
    stats = _mmpp2_statistics(unit)
    spread = r_high - r_low
    params = {
        "rate_high": r_high,
        "rate_low": r_low,
        "switch_to_low": theta * (r_high - 1.0) / spread,
        "switch_to_high": theta * (1.0 - r_low) / spread,
    }
    achieved = {"rate": summary.rate, "scv": stats["scv"], "lag1": stats["lag1"], "idc": stats["idc"]}
    target = {"rate": summary.rate, **wanted}
    matched = {"rate", "scv", "lag1"} | ({"idc"} if use_idc else set())
    worst = max(
        abs(achieved[key] - target[key]) / max(abs(target[key]), 1e-9) for key in matched
    )
    return TraceFit(
        family="mmpp2",
        arrival=DistributionSpec("mmpp2", params),
        process=unit.rescaled(summary.rate),
        target=target,
        achieved=achieved,
        matched=tuple(sorted(matched)),
        converged=worst <= MMPP2_TOLERANCE,
    )


def fit_arrival(
    trace: Union[ArrivalTrace, BurstinessSummary],
    family: str = "auto",
    targets: Optional[Mapping[str, float]] = None,
) -> TraceFit:
    """Fit one arrival family to the trace, or pick one automatically.

    ``family="auto"`` chooses by the burstiness summary: correlated and
    over-dispersed traces get an MMPP2, uncorrelated over-dispersed ones a
    hyperexponential, under-dispersed ones an Erlang, and anything within
    5% of SCV 1 stays Poisson.  If the MMPP2 optimizer fails on an edge
    case, auto falls back to the hyperexponential fit.
    """
    summary = _summary_of(trace)
    if family == "auto":
        if summary.is_bursty:
            try:
                return fit_mmpp2(summary, targets=targets)
            except TraceFitError:
                return fit_hyperexponential(summary)
        if summary.scv > 1.0 + MMPP2_TOLERANCE:
            return fit_hyperexponential(summary)
        if summary.scv < 1.0 - MMPP2_TOLERANCE:
            return fit_erlang(summary)
        return fit_poisson(summary)
    if family == "mmpp2":
        return fit_mmpp2(summary, targets=targets)
    if family == "hyperexponential":
        return fit_hyperexponential(summary)
    if family == "erlang":
        return fit_erlang(summary)
    if family == "poisson":
        return fit_poisson(summary)
    raise TraceFitError(f"unknown fit family {family!r} (supported: auto, {', '.join(FAMILIES)})")

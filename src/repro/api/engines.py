"""The five registered backends wrapping every engine in the repository.

Each adapter translates an :class:`~repro.api.spec.ExperimentSpec` into the
wrapped engine's native arguments and returns a flat metrics mapping whose
headline key is always ``"mean_delay"`` (mean sojourn time, the paper's
"average delay").  The two stochastic adapters split the work by model:
``fleet`` simulates the Markov model (Poisson arrivals, exponential
service, queue-length policies) at a per-event cost independent of ``N``,
and ``cluster`` simulates everything else job by job.

=============  ======================================================  ========
backend        wrapped engine                                          answer
=============  ======================================================  ========
``qbd_bounds``  :func:`repro.core.analysis.analyze_sqd`                bounds
``exact``       :func:`repro.core.exact.solve_exact_truncated`         exact
``cluster``     :class:`repro.simulation.cluster.ClusterSimulation`    estimate
``fleet``       :func:`repro.fleet.engine.simulate_fleet`              estimate
``meanfield``   :func:`repro.fleet.meanfield.meanfield_delay`          limit
=============  ======================================================  ========
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.api.backends import Capabilities, register_backend
from repro.api.spec import DistributionSpec, ExperimentSpec, SpecError

__all__ = [
    "QBDBoundsBackend",
    "ExactBackend",
    "ClusterBackend",
    "FleetBackend",
    "MeanFieldBackend",
    "build_arrival_process",
]

#: Largest QBD repeating-block size ``C(N+T-1, T)`` the bounds backend
#: accepts; beyond this the matrix-geometric solve takes minutes.
MAX_QBD_BLOCK = 3_000

#: Largest truncated state space ``C(N+B, N)`` the exact backend solves:
#: B <= 82 at N=3 (B=80 has 91,881 states: ~13 s and ~650 MB).
MAX_EXACT_STATES = 100_000


def _service_distribution(dist: DistributionSpec, service_rate: float):
    """Instantiate a service distribution with mean ``1 / service_rate``."""
    from repro.markov.service_distributions import (
        DeterministicService,
        ErlangService,
        ExponentialService,
        HyperexponentialService,
    )

    mean = 1.0 / service_rate
    if dist.name == "exponential":
        return ExponentialService(rate=service_rate)
    if dist.name == "erlang":
        stages = dist.params.get("stages", 2)
        return ErlangService(stages=stages, mean=mean)
    if dist.name == "deterministic":
        return DeterministicService(value=mean)
    return _hyperexponential(dist, mean, f"mean service time 1/mu = {mean:.6g}")


def _hyperexponential(dist: DistributionSpec, mean: float, what: str):
    """Hyperexponential mixture with the required mean.

    Either a two-moment fit (``{"scv": x}``, balanced two-phase with squared
    coefficient of variation ``x >= 1``) or an explicit mixture
    (``{"probabilities": [...], "rates": [...]}``) whose mean must match —
    otherwise the spec's ``utilization`` would silently stop meaning
    ``rho = lambda / mu``.
    """
    from repro.markov.service_distributions import HyperexponentialService

    if "scv" in dist.params:
        return HyperexponentialService.balanced_two_phase(mean=mean, scv=dist.params["scv"])
    probabilities = dist.params.get("probabilities")
    rates = dist.params.get("rates")
    if probabilities is None or rates is None:
        raise SpecError(
            "hyperexponential distributions need either an 'scv' param or explicit "
            "'probabilities' and 'rates'"
        )
    built = HyperexponentialService(list(probabilities), list(rates))
    if not math.isclose(built.mean, mean, rel_tol=1e-9):
        raise SpecError(
            f"hyperexponential mixture mean {built.mean:.6g} does not match the spec's {what}"
        )
    return built


def _arrival_process(dist: DistributionSpec, total_rate: float):
    """Instantiate an arrival process with aggregate rate ``total_rate``.

    The spec convention is "shapes in the workload, rates from the system":
    renewal laws are built at mean ``1 / total_rate``, an ``mmpp2`` shape is
    time-rescaled so its aggregate rate is ``total_rate`` (burstiness
    statistics are scale-invariant), and a ``trace`` is loaded from disk and
    replayed — rescaled to ``total_rate`` unless ``{"rescale": false}``.
    """
    from repro.markov.arrival_processes import (
        MarkovianArrivalProcess,
        PoissonArrivals,
        RenewalArrivals,
    )
    from repro.markov.service_distributions import ErlangService

    if dist.name == "poisson":
        return PoissonArrivals(total_rate)
    if dist.name == "erlang":
        stages = dist.params.get("stages", 2)
        return RenewalArrivals(ErlangService(stages=stages, mean=1.0 / total_rate))
    if dist.name == "mmpp2":
        shape = MarkovianArrivalProcess.mmpp2(
            rate_high=dist.params["rate_high"],
            rate_low=dist.params["rate_low"],
            switch_to_low=dist.params["switch_to_low"],
            switch_to_high=dist.params["switch_to_high"],
        )
        return shape.rescaled(total_rate)
    if dist.name == "trace":
        from repro.traces.replay import TraceArrivals
        from repro.traces.trace import ArrivalTrace, TraceError

        try:
            # Cached: replicated runs re-resolve the same immutable file once
            # per replication, and the parse dominates short replications.
            trace = ArrivalTrace.load_cached(dist.params["path"])
            rescale = dist.params.get("rescale", True)
            return TraceArrivals(trace, rate=total_rate if rescale else None)
        except TraceError as error:
            raise SpecError(f"workload.arrival['trace']: {error}") from None
    return RenewalArrivals(
        _hyperexponential(
            dist, 1.0 / total_rate, f"mean interarrival time 1/(rho mu N) = {1.0 / total_rate:.6g}"
        )
    )


#: Public name of the spec-to-process translation, shared by the CLI's
#: ``analyze --arrival`` (MAP asymptotics from the spec layer) and the
#: trace tooling.
build_arrival_process = _arrival_process


@dataclass(frozen=True)
class _BoundsCapabilities(Capabilities):
    """Adds the QBD block-size tractability gate to the generic checks."""

    def why_unsupported(self, spec: ExperimentSpec) -> Optional[str]:
        reason = super().why_unsupported(spec)
        if reason is not None:
            return reason
        threshold = spec.option("threshold", 3)
        block = math.comb(spec.system.num_servers + threshold - 1, threshold)
        if block > MAX_QBD_BLOCK:
            return (
                f"QBD block size C(N+T-1, T) = {block} exceeds {MAX_QBD_BLOCK} "
                f"(N={spec.system.num_servers}, T={threshold}); lower the "
                "'threshold' option or the pool size"
            )
        return None


@register_backend("qbd_bounds")
class QBDBoundsBackend:
    """The paper's finite-regime bracket: Theorems 1/3 lower and upper bounds.

    The reported ``mean_delay`` is the Theorem 3 lower bound (the estimate
    the paper calls "remarkably accurate"); the extras carry the full
    bracket plus the asymptotic baseline.  Options: ``threshold`` (the
    imbalance threshold ``T``, default 3).
    """

    capabilities = _BoundsCapabilities(
        description="QBD lower/upper delay bounds (Theorems 1 and 3)",
        policies=("sqd",),
        answer="bounds",
        deterministic=True,
        auto_rank=None,
    )

    def run_once(self, spec: ExperimentSpec, seed: Optional[int]) -> Dict[str, Any]:
        from repro.core.analysis import analyze_sqd

        threshold = spec.option("threshold", 3)
        analysis = analyze_sqd(
            num_servers=spec.system.num_servers,
            d=spec.system.d,
            utilization=spec.system.utilization,
            threshold=threshold,
            service_rate=spec.system.service_rate,
        )
        upper = analysis.upper_delay
        return {
            "mean_delay": analysis.lower_delay,
            "lower_delay": analysis.lower_delay,
            "upper_delay": math.inf if upper is None else upper,
            "upper_bound_unstable": analysis.upper_bound_unstable,
            "asymptotic_delay": analysis.asymptotic_delay,
            "threshold": threshold,
        }


@dataclass(frozen=True)
class _ExactCapabilities(Capabilities):
    """Adds the truncated state-space gate to the generic checks."""

    def why_unsupported(self, spec: ExperimentSpec) -> Optional[str]:
        reason = super().why_unsupported(spec)
        if reason is not None:
            return reason
        buffer_size = spec.option("buffer_size", 30)
        states = math.comb(spec.system.num_servers + buffer_size, spec.system.num_servers)
        if states > MAX_EXACT_STATES:
            return (
                f"truncated state space C(N+B, N) = {states} exceeds {MAX_EXACT_STATES} "
                f"(N={spec.system.num_servers}, B={buffer_size}); lower the "
                "'buffer_size' option"
            )
        return None


@register_backend("exact")
class ExactBackend:
    """Numerically exact solution of the buffer-truncated SQ(d) chain.

    Tractable only for tiny pools (the ordered state space has
    ``C(N + B, N)`` states, at most ``MAX_EXACT_STATES``).  Options:
    ``buffer_size`` (per-server head-room ``B``, default 30).
    """

    capabilities = _ExactCapabilities(
        description="exact stationary solution of the truncated chain",
        policies=("sqd",),
        max_servers=3,
        answer="exact",
        deterministic=True,
        auto_rank=0,
    )

    def run_once(self, spec: ExperimentSpec, seed: Optional[int]) -> Dict[str, Any]:
        from repro.core.exact import solve_exact_truncated
        from repro.core.model import SQDModel

        model = SQDModel(
            num_servers=spec.system.num_servers,
            d=spec.system.d,
            utilization=spec.system.utilization,
            service_rate=spec.system.service_rate,
        )
        solution = solve_exact_truncated(model, buffer_size=spec.option("buffer_size", 30))
        return {
            "mean_delay": solution.mean_delay,
            "truncation_mass": solution.truncation_mass,
            "num_states": float(solution.num_states),
        }


@register_backend("cluster")
class ClusterBackend:
    """Job-level discrete-event simulation — the distribution-agnostic engine.

    The only backend that runs non-exponential service, renewal arrivals,
    MAP (``mmpp2``) input, recorded-trace replay and the work-aware
    policies.  The first ``int(num_jobs * horizon.warmup_fraction)``
    arrivals (one tenth at the default) are discarded before measurement.
    """

    capabilities = Capabilities(
        description="job-level discrete-event simulation",
        policies=("sqd", "jsq", "random", "round_robin", "jiq", "least_work_left"),
        arrivals=("poisson", "erlang", "hyperexponential", "mmpp2", "trace"),
        services=("exponential", "erlang", "hyperexponential", "deterministic"),
        max_servers=5_000,
        answer="estimate",
        auto_rank=3,
    )

    DEFAULT_JOBS = 50_000

    def _workload(self, spec: ExperimentSpec):
        from repro.simulation.workloads import Workload, poisson_exponential_workload

        system = spec.system
        if spec.workload.is_default:
            return poisson_exponential_workload(
                num_servers=system.num_servers,
                utilization=system.utilization,
                service_rate=system.service_rate,
            )
        total_rate = system.utilization * system.service_rate * system.num_servers
        return Workload(
            num_servers=system.num_servers,
            arrival_process=_arrival_process(spec.workload.arrival, total_rate),
            service_distribution=_service_distribution(spec.workload.service, system.service_rate),
        )

    def _policy(self, spec: ExperimentSpec):
        from repro.policies import (
            JoinIdleQueue,
            JoinShortestQueue,
            LeastWorkLeft,
            PowerOfD,
            RoundRobin,
            UniformRandom,
        )

        d = spec.system.d
        return {
            "sqd": lambda: PowerOfD(d),
            "jsq": JoinShortestQueue,
            "random": UniformRandom,
            "round_robin": RoundRobin,
            "jiq": JoinIdleQueue,
            "least_work_left": lambda: LeastWorkLeft(d),
        }[spec.policy]()

    def run_once(self, spec: ExperimentSpec, seed: Optional[int]) -> Dict[str, Any]:
        from repro.simulation.cluster import ClusterSimulation

        num_jobs = spec.horizon.num_jobs or self.DEFAULT_JOBS
        simulation = ClusterSimulation(
            self._workload(spec),
            self._policy(spec),
            seed=seed,
            warmup_jobs=int(num_jobs * spec.horizon.warmup_fraction),
        )
        result = simulation.run(num_jobs)
        return {
            "mean_delay": result.mean_sojourn_time,
            "mean_waiting_time": result.mean_waiting_time,
            "simulated_time": result.simulated_time,
            "completed_jobs": float(result.completed_jobs),
        }


@register_backend("fleet")
class FleetBackend:
    """Occupancy-vector Gillespie engine — N up to 10^6, plus scenarios.

    Options: ``start`` (``"stationary"`` / ``"empty"``, stationary runs
    only) and ``with_replacement`` (poll with replacement).  The event
    kernel's name (:mod:`repro.kernels`) rides along in the metrics, so it
    lands in ``RunResult`` extras and every replication record.

    A scenario run reports, besides the overall arrival-weighted delay,
    four metrics per measured phase ``k`` (zero-duration phases measure
    nothing and are skipped): ``phase<k>_mean_delay``,
    ``phase<k>_mean_queue_length`` (jobs per server),
    ``phase<k>_num_servers`` (pool size at the end of the phase) and
    ``phase<k>_num_events``.  ``k`` counts from 1 and is zero-padded to a
    common width, so the keys sort in playback order.
    """

    capabilities = Capabilities(
        description="occupancy-based fleet simulation (large N, scenarios)",
        policies=("sqd", "jsq", "random"),
        supports_scenarios=True,
        answer="estimate",
        auto_rank=1,
    )

    DEFAULT_EVENTS = 500_000

    def run_once(self, spec: ExperimentSpec, seed: Optional[int]) -> Dict[str, Any]:
        from repro.fleet.engine import run_scenario, simulate_fleet
        from repro.fleet.scenarios import get_scenario
        from repro.kernels import UniformizedKernel

        if spec.scenario is not None:
            scenario = get_scenario(spec.scenario.name, **dict(spec.scenario.params))
            result = run_scenario(
                scenario,
                num_servers=spec.system.num_servers,
                d=spec.system.d,
                service_rate=spec.system.service_rate,
                policy=spec.policy,
                seed=seed,
                with_replacement=spec.option("with_replacement", False),
            )
            metrics = {
                "mean_delay": result.overall_mean_delay,
                "simulated_time": result.total_time,
                "num_events": float(result.total_events),
                "kernel": UniformizedKernel.name,
            }
            width = len(str(len(result.phases)))
            for index, phase in enumerate(result.phases, start=1):
                prefix = f"phase{index:0{width}d}_"
                metrics[prefix + "mean_delay"] = phase.mean_sojourn_time
                metrics[prefix + "mean_queue_length"] = phase.mean_queue_length
                metrics[prefix + "num_servers"] = float(phase.num_servers)
                metrics[prefix + "num_events"] = float(phase.num_events)
            return metrics

        result = simulate_fleet(
            num_servers=spec.system.num_servers,
            d=spec.system.d,
            utilization=spec.system.utilization,
            service_rate=spec.system.service_rate,
            num_events=spec.horizon.num_events or self.DEFAULT_EVENTS,
            warmup_fraction=spec.horizon.warmup_fraction,
            seed=seed,
            policy=spec.policy,
            start=spec.option("start", "stationary"),
            with_replacement=spec.option("with_replacement", False),
        )
        return {
            "mean_delay": result.mean_sojourn_time,
            "mean_waiting_time": result.mean_waiting_time,
            "mean_queue_length": result.mean_queue_length,
            "mean_jobs_in_system": result.mean_jobs_in_system,
            "simulated_time": result.simulated_time,
            "num_events": float(result.num_events),
            "events_per_second": result.events_per_second,
            "kernel": UniformizedKernel.name,
        }


@register_backend("meanfield")
class MeanFieldBackend:
    """The ``N -> infinity`` mean-field limit (power-of-d fixed point).

    Never chosen by ``backend="auto"`` — it answers a different question
    (the limit, not the finite system) — but invaluable as the scale
    anchor every finite-``N`` estimate converges towards.
    """

    capabilities = Capabilities(
        description="mean-field (N -> infinity) fixed-point delay",
        policies=("sqd", "jsq", "random"),
        answer="limit",
        deterministic=True,
        auto_rank=None,
    )

    def run_once(self, spec: ExperimentSpec, seed: Optional[int]) -> Dict[str, Any]:
        from repro.fleet.meanfield import meanfield_delay, meanfield_mean_queue_length

        utilization = spec.system.utilization
        # Under JSQ queueing vanishes in the limit: delay = bare service time.
        if spec.policy == "jsq":
            delay_units, queue = 1.0, utilization
        else:
            d = 1 if spec.policy == "random" else spec.system.d
            delay_units = meanfield_delay(utilization, d)
            queue = meanfield_mean_queue_length(utilization, d)
        return {
            "mean_delay": delay_units / spec.system.service_rate,
            "mean_queue_length": queue,
        }

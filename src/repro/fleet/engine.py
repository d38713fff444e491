"""Batched Gillespie driver over occupancy state for N up to 10^6.

The driver jumps from event to event on the occupancy CTMC of
:mod:`repro.fleet.occupancy`: the total jump rate is ``lambda * N`` (arrivals)
plus ``mu * F[1]`` (one departure stream per busy server).  The hot loop
itself is the ``uniformized`` event kernel of :mod:`repro.kernels`: it
uniformizes the chain, prepares slices of events vectorized and scans the
occupancy levels, for every policy and every ``d`` (see
``docs/performance.md``).

Per-level occupancy time-averages accumulate per statistics window: the
kernel adds each slice's per-level integrals at the slice's end, and a
pool resize or a statistics read flushes every level up to the clock.
Mean delay is recovered from the time-averaged number of jobs through
(distributional) Little's law with the *observed* arrival rate, which stays
correct under the time-varying scenarios of :mod:`repro.fleet.scenarios`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.fleet.meanfield import meanfield_fixed_point
from repro.fleet.occupancy import OccupancyState
from repro.fleet.scenarios import Scenario
from repro.kernels import UniformizedKernel
from repro.utils.seeding import spawn_rngs
from repro.utils.validation import (
    ValidationError,
    check_in_range,
    check_integer,
    check_positive,
)

__all__ = [
    "FleetResult",
    "FleetSimulation",
    "ScenarioResult",
    "simulate_fleet",
    "run_scenario",
]

_POLICIES = ("sqd", "jsq", "random")


@dataclass(frozen=True)
class FleetResult:
    """Time-average statistics of one measurement window."""

    num_servers: int
    d: int
    policy: str
    utilization: float
    service_rate: float
    mean_jobs_in_system: float
    mean_queue_length: float
    mean_sojourn_time: float
    mean_waiting_time: float
    occupancy_fractions: np.ndarray
    mean_servers: float
    simulated_time: float
    num_events: int
    arrivals: int
    departures: int
    wall_seconds: float = float("nan")

    @property
    def mean_delay(self) -> float:
        """The paper's "average delay" (mean response/sojourn time)."""
        return self.mean_sojourn_time

    @property
    def events_per_second(self) -> float:
        """Simulated events per wall-clock second (nan if not timed)."""
        if not math.isfinite(self.wall_seconds) or self.wall_seconds <= 0:
            return float("nan")
        return self.num_events / self.wall_seconds


class FleetSimulation:
    """Occupancy-vector Gillespie simulation of a dispatcher fleet.

    Parameters
    ----------
    num_servers : int
        Pool size ``N``.
    d : int
        Number of servers polled per arrival (``1 <= d``, and ``d <= N``
        under ``"sqd"``; ``"jsq"`` and ``"random"`` do not read it).
    utilization : float
        Per-server traffic intensity ``rho = lambda / mu`` (dimensionless,
        not a raw rate); may be changed between :meth:`advance` calls via
        :meth:`set_utilization`, and may exceed 1 for transient overload.
    service_rate : float
        Per-server service rate ``mu`` in jobs per time unit; simulated
        time and all delays are in units of ``1/mu``.
    policy : str
        ``"sqd"`` (power of ``d`` choices over distinct servers, the law of
        :class:`repro.policies.sqd.PowerOfD`), ``"jsq"`` or ``"random"``.
    seed : int or None
        RNG seed; identical seeds give bitwise-identical trajectories.
    initial_state : OccupancyState, optional
        Starting occupancy; defaults to an empty cluster.
    with_replacement : bool
        Poll with replacement instead — the variant whose N -> infinity
        limit is exactly the mean-field ODE.  The two laws differ by
        O(d^2/N) and are indistinguishable at fleet scale.
    """

    def __init__(
        self,
        num_servers: int,
        d: int = 2,
        utilization: float = 0.9,
        service_rate: float = 1.0,
        policy: str = "sqd",
        seed: Optional[int] = 12345,
        initial_state: Optional[OccupancyState] = None,
        with_replacement: bool = False,
    ):
        num_servers = check_integer("num_servers", num_servers, minimum=1)
        if policy not in _POLICIES:
            raise ValidationError(f"policy must be one of {_POLICIES}, got {policy!r}")
        # Only SQ(d) polls d distinct servers; jsq never reads d and random
        # is SQ(1).
        d = check_integer("d", d, minimum=1, maximum=num_servers if policy == "sqd" else None)
        self._d = 1 if policy == "random" else d
        check_in_range("utilization", utilization, 0.0, 10.0)
        check_positive("service_rate", service_rate)
        self._policy = policy
        self._service_rate = float(service_rate)
        self._arrival_rate_per_server = float(utilization) * self._service_rate
        self._with_replacement = bool(with_replacement)

        if initial_state is None:
            self._state = OccupancyState.empty(num_servers)
        else:
            if initial_state.num_servers != num_servers:
                raise ValidationError(
                    f"initial_state has {initial_state.num_servers} servers, expected {num_servers}"
                )
            self._state = initial_state.copy()

        self._kernel = UniformizedKernel()

        (self._rng,) = spawn_rngs(seed, 1)

        self._now = 0.0
        self._events_total = 0
        self._reset_window()

    # ------------------------------------------------------------------ #
    # Statistics window management
    # ------------------------------------------------------------------ #
    def _reset_window(self) -> None:
        self._stats_start = self._now
        self._weighted_jobs = 0.0
        self._arrivals = 0
        self._departures = 0
        self._window_events = 0
        depth = len(self._state.levels)
        self._level_weight = [0.0] * depth
        self._level_last = [self._now] * depth

    def _flush_levels(self) -> None:
        now = self._now
        levels = self._state.levels
        for j in range(len(self._level_weight)):
            count = levels[j] if j < len(levels) else 0
            self._level_weight[j] += count * (now - self._level_last[j])
            self._level_last[j] = now

    def reset_statistics(self) -> None:
        """Drop everything measured so far; the cluster state is kept."""
        self._reset_window()

    # ------------------------------------------------------------------ #
    # Reconfiguration between advances (scenario support)
    # ------------------------------------------------------------------ #
    def set_utilization(self, utilization: float) -> None:
        """Change the per-server offered load for subsequent events."""
        check_in_range("utilization", utilization, 0.0, 10.0)
        self._arrival_rate_per_server = float(utilization) * self._service_rate

    def set_num_servers(self, num_servers: int) -> int:
        """Resize the pool (idle servers only leave); returns the actual size."""
        check_integer("num_servers", num_servers, minimum=1)
        if self._policy == "sqd" and self._d > max(num_servers, self._state.busy_servers):
            raise ValidationError(f"cannot shrink below d={self._d} servers")
        self._flush_levels()
        return self._state.resize(num_servers)

    @property
    def now(self) -> float:
        return self._now

    @property
    def state(self) -> OccupancyState:
        return self._state

    @property
    def events_executed(self) -> int:
        return self._events_total

    # ------------------------------------------------------------------ #
    # The hot loop (delegated to the event kernel)
    # ------------------------------------------------------------------ #
    def advance(self, max_events: Optional[int] = None, until_time: Optional[float] = None) -> int:
        """Simulate until ``max_events`` fire or the clock reaches ``until_time``.

        Returns the number of events executed.  At least one stop condition
        is required; with both, whichever limit comes first stops the run.
        When the budget runs out first the clock stays at the last event,
        even if the next one would fall past ``until_time``; only the time
        cap moves the clock to ``until_time``.  Statistics accumulate into
        the current window.  The loop itself runs in the event kernel
        (:mod:`repro.kernels`).
        """
        if max_events is None and until_time is None:
            raise ValidationError("advance() needs max_events and/or until_time")
        if max_events is not None:
            check_integer("max_events", max_events, minimum=0)
        return self._kernel.advance(self, max_events, until_time)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def statistics(self, wall_seconds: float = float("nan")) -> FleetResult:
        """Snapshot the current measurement window as a :class:`FleetResult`."""
        self._flush_levels()
        measured = self._now - self._stats_start
        if measured <= 0:
            raise ValidationError("no simulated time accumulated in this statistics window")
        mean_jobs = self._weighted_jobs / measured
        counts = np.asarray(self._level_weight, dtype=float) / measured
        mean_servers = counts[0] if counts.shape[0] else float(self._state.num_servers)
        effective_lambda = self._arrivals / measured
        if effective_lambda > 0:
            sojourn = mean_jobs / effective_lambda
            waiting = sojourn - 1.0 / self._service_rate
        else:
            sojourn = float("nan")
            waiting = float("nan")
        return FleetResult(
            num_servers=self._state.num_servers,
            d=self._d,
            policy=self._policy,
            utilization=self._arrival_rate_per_server / self._service_rate,
            service_rate=self._service_rate,
            mean_jobs_in_system=float(mean_jobs),
            mean_queue_length=float(mean_jobs / mean_servers) if mean_servers > 0 else float("nan"),
            mean_sojourn_time=float(sojourn),
            mean_waiting_time=float(waiting),
            occupancy_fractions=counts / mean_servers if mean_servers > 0 else counts,
            mean_servers=float(mean_servers),
            simulated_time=float(measured),
            num_events=self._window_events,
            arrivals=self._arrivals,
            departures=self._departures,
            wall_seconds=wall_seconds,
        )


def _stationary_start(num_servers: int, d: int, utilization: float, policy: str) -> OccupancyState:
    """Occupancy profile near the stationary regime, for fast warm-up."""
    if utilization >= 1.0 or utilization <= 0.0:
        return OccupancyState.empty(num_servers)
    if policy == "jsq":
        fractions = [1.0, utilization]
    elif policy == "random":
        # The M/M/1 profile rho^k decays only geometrically: build it down to
        # the depth where N rho^k rounds to zero, past the default 200 levels.
        depth = math.ceil(math.log(2 * num_servers) / -math.log(utilization))
        fractions = meanfield_fixed_point(utilization, 1, max_levels=max(200, depth))
    else:
        fractions = meanfield_fixed_point(utilization, d)
    return OccupancyState.from_fractions(num_servers, fractions)


def simulate_fleet(
    num_servers: int,
    d: int = 2,
    utilization: float = 0.9,
    service_rate: float = 1.0,
    num_events: int = 500_000,
    warmup_fraction: float = 0.1,
    seed: Optional[int] = 12345,
    policy: str = "sqd",
    start: Union[str, OccupancyState] = "stationary",
    with_replacement: bool = False,
) -> FleetResult:
    """Stationary fleet simulation: warm up, measure, return time averages.

    Parameters
    ----------
    num_servers : int
        Pool size ``N`` (the occupancy representation keeps per-event cost
        independent of it, so ``N = 10^6`` is practical).
    d : int
        Number of servers polled per arrival (``1 <= d``, and ``d <= N``
        under ``"sqd"``; ``"jsq"`` and ``"random"`` do not read it).
    utilization : float
        Per-server traffic intensity ``rho = lambda / mu`` (dimensionless,
        strictly below 1 for a stationary run) — *not* the raw arrival
        rate; the cluster-wide arrival rate is ``rho * mu * N``.
    service_rate : float
        Per-server service rate ``mu`` in jobs per time unit.  Reported
        delays are in units of ``1/mu``, so with the default ``mu = 1`` a
        mean sojourn time of 2.3 means "2.3 mean service times".
    num_events : int
        Total simulated events (arrivals + departures), including warm-up.
    warmup_fraction : float
        Fraction of ``num_events`` discarded before measurement starts.
    seed : int or None
        RNG seed; identical seeds give bitwise-identical results.
    policy : str
        ``"sqd"``, ``"jsq"`` or ``"random"``.
    start : str or OccupancyState
        ``"stationary"`` seeds the occupancy at the mean-field fixed point
        so the warm-up only has to absorb O(sqrt(N)) fluctuations instead
        of the O(1/(1 - rho)) fill-up transient; ``"empty"`` reproduces the
        classic cold start; an explicit :class:`OccupancyState` is used
        as-is.
    with_replacement : bool
        Poll with replacement (the mean-field ODE's exact prefactor law)
        instead of distinct servers.

    Returns
    -------
    FleetResult
        Time-averaged statistics of the measurement window; mean delay is
        recovered via Little's law from the time-averaged number of jobs
        and the observed arrival rate.
    """
    check_in_range("utilization", utilization, 0.0, 1.0)
    if utilization >= 1.0:
        raise ValidationError("utilization must be strictly below 1 for a stationary run")
    num_events = check_integer("num_events", num_events, minimum=1)
    check_in_range("warmup_fraction", warmup_fraction, 0.0, 0.9)

    if isinstance(start, OccupancyState):
        initial = start
    elif start == "stationary":
        initial = _stationary_start(num_servers, d, utilization, policy)
    elif start == "empty":
        initial = None
    else:
        raise ValidationError(f"start must be 'stationary', 'empty' or an OccupancyState, got {start!r}")

    simulation = FleetSimulation(
        num_servers=num_servers,
        d=d,
        utilization=utilization,
        service_rate=service_rate,
        policy=policy,
        seed=seed,
        initial_state=initial,
        with_replacement=with_replacement,
    )
    warmup_events = int(num_events * warmup_fraction)
    if warmup_events:
        simulation.advance(max_events=warmup_events)
        simulation.reset_statistics()
    started = time.perf_counter()
    simulation.advance(max_events=num_events - warmup_events)
    wall = time.perf_counter() - started
    return simulation.statistics(wall_seconds=wall)


@dataclass(frozen=True)
class ScenarioResult:
    """Per-phase fleet statistics for one scenario playback."""

    scenario: Scenario
    num_servers: int
    phases: Tuple[FleetResult, ...]
    labels: Tuple[str, ...]

    @property
    def total_events(self) -> int:
        return sum(phase.num_events for phase in self.phases)

    @property
    def total_time(self) -> float:
        return sum(phase.simulated_time for phase in self.phases)

    @property
    def overall_mean_delay(self) -> float:
        """Arrival-weighted mean delay across all phases (Little's law)."""
        jobs_time = sum(p.mean_jobs_in_system * p.simulated_time for p in self.phases)
        arrivals = sum(p.arrivals for p in self.phases)
        return jobs_time / arrivals if arrivals else float("nan")


def run_scenario(
    scenario: Scenario,
    num_servers: int,
    d: int = 2,
    service_rate: float = 1.0,
    policy: str = "sqd",
    seed: Optional[int] = 12345,
    with_replacement: bool = False,
) -> ScenarioResult:
    """Play a :class:`Scenario` through the occupancy engine.

    Parameters
    ----------
    scenario : Scenario
        The phase sequence to play back; per-phase durations are in units
        of ``1/mu`` and utilizations are dimensionless ``rho`` values.
    num_servers : int
        Base pool size ``N`` that phase ``server_scale`` factors multiply.
    d : int
        Number of servers polled per arrival.
    service_rate : float
        Per-server service rate ``mu``; delays are in units of ``1/mu``.
    policy : str
        ``"sqd"``, ``"jsq"`` or ``"random"``.
    seed : int or None
        RNG seed; identical seeds give bitwise-identical playbacks.
    with_replacement : bool
        Poll with replacement (see :class:`FleetSimulation`).

    Returns
    -------
    ScenarioResult
        Per-phase statistics windows plus arrival-weighted overall delay.

    Notes
    -----
    The cluster state carries across phase boundaries (that is the point:
    transients from one phase bleed into the next); statistics are windowed
    per phase.  The warm-up runs at the first phase's settings from a
    near-stationary start and is discarded.

    Zero-duration phases apply their reconfiguration (load change, pool
    resize) instantaneously but contribute no statistics window — they are
    excluded from :attr:`ScenarioResult.phases`, since a zero-length
    time-average is undefined.
    """
    first = scenario.phases[0]
    base_servers = check_integer("num_servers", num_servers, minimum=1)
    initial_n = max(1, int(round(base_servers * first.server_scale)))
    simulation = FleetSimulation(
        num_servers=initial_n,
        d=d,
        utilization=first.utilization,
        service_rate=service_rate,
        policy=policy,
        seed=seed,
        initial_state=_stationary_start(initial_n, d, first.utilization, policy),
        with_replacement=with_replacement,
    )
    if scenario.warmup_time > 0:
        simulation.advance(until_time=simulation.now + scenario.warmup_time)
    results: List[FleetResult] = []
    labels: List[str] = []
    for index, phase in enumerate(scenario.phases):
        simulation.set_utilization(phase.utilization)
        simulation.set_num_servers(max(1, int(round(base_servers * phase.server_scale))))
        if phase.duration <= 0:
            continue
        simulation.reset_statistics()
        simulation.advance(until_time=simulation.now + phase.duration)
        results.append(simulation.statistics())
        labels.append(phase.label or f"phase {index + 1}")
    return ScenarioResult(
        scenario=scenario,
        num_servers=base_servers,
        phases=tuple(results),
        labels=tuple(labels),
    )

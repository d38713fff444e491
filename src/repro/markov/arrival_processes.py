"""Arrival processes and the mixed-Poisson coefficients of the paper's Eq. (19).

The improved lower bound (Theorem 2) holds for a general renewal arrival
process with interarrival distribution ``A``; the geometric decay factor is
``sigma^N`` where ``sigma`` is the unique root in ``(0, 1)`` of

.. math::  x = \\sum_{k \\ge 0} x^k \\beta_k,
           \\qquad \\beta_k = \\int_0^\\infty \\frac{(\\mu t)^k}{k!} e^{-\\mu t} \\, dA(t).

Because ``sum_k x^k beta_k`` equals the Laplace–Stieltjes transform of ``A``
evaluated at ``mu (1 - x)``, the fixed-point equation is the classical GI/M/1
root equation; for Poisson arrivals the root is simply the traffic intensity
``rho`` (Theorem 3).

Every arrival process here also knows how to *sample* interarrival times, so
the same objects drive both the analytical lower bound and the simulators.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import List, Sequence

import numpy as np

from repro.utils.validation import ValidationError, check_positive, check_probability


class ArrivalProcess(ABC):
    """Abstract base class for arrival processes used across the library."""

    @property
    @abstractmethod
    def rate(self) -> float:
        """Long-run arrival rate (jobs per unit time)."""

    @abstractmethod
    def sample_interarrival_times(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` consecutive interarrival times."""

    def mean_interarrival_time(self) -> float:
        return 1.0 / self.rate

    def is_renewal(self) -> bool:
        """True when interarrival times are independent and identically distributed."""
        return True

    def interarrival_lst(self, s: float) -> float:
        """Laplace–Stieltjes transform ``E[e^{-s U}]`` of the interarrival time.

        Subclasses with closed forms override this; the default integrates the
        sampled density numerically and is only used by exotic processes.
        """
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Poisson process with the given rate (exponential interarrival times)."""

    def __init__(self, rate: float):
        self._rate = check_positive("rate", rate)

    @property
    def rate(self) -> float:
        return self._rate

    def sample_interarrival_times(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self._rate, size=size)

    def interarrival_lst(self, s: float) -> float:
        return self._rate / (self._rate + s)

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self._rate})"


class RenewalArrivals(ArrivalProcess):
    """Renewal arrival process with a pluggable interarrival distribution.

    The interarrival distribution is provided as a
    :class:`repro.markov.service_distributions.ServiceDistribution` (any
    non-negative distribution object with ``mean``, ``sample`` and ``lst``),
    which keeps a single catalogue of distributions for both arrivals and
    services.
    """

    def __init__(self, interarrival_distribution) -> None:
        mean = interarrival_distribution.mean
        if mean <= 0:
            raise ValidationError("interarrival distribution must have positive mean")
        self._distribution = interarrival_distribution

    @property
    def rate(self) -> float:
        return 1.0 / self._distribution.mean

    @property
    def interarrival_distribution(self):
        return self._distribution

    def sample_interarrival_times(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._distribution.sample(rng, size)

    def interarrival_lst(self, s: float) -> float:
        return self._distribution.lst(s)

    def __repr__(self) -> str:
        return f"RenewalArrivals({self._distribution!r})"


#: Holds and picks drawn per block by :class:`PhaseWalk`: the size the cluster
#: DES asks for, so a long trace needs no more memory for its draws than that.
WALK_BLOCK = 8192


class PhaseWalk:
    """Sampler of the intervals between marked transitions of a phase process.

    The process holds in phase ``i`` for an exponential time of rate
    ``-D0[i, i]``, then either moves silently to ``j != i`` (weight
    ``D0[i, j]``) or makes a marked transition to ``j`` (weight ``D1[i, j]``,
    ``j == i`` included).  An interval ends at a marked transition and the
    next one starts in the phase it entered.  With ``(D0, D1)`` a MAP the
    intervals are its interarrival times; with ``(S, s0 alpha)`` they are
    i.i.d. samples of the phase-type law ``PH(alpha, S)``.

    The exponential holds and the uniforms that pick each move are drawn in
    numpy blocks and consumed by a scalar scan: one step is a multiply and a
    ``bisect_right`` in phase ``i``'s cumulative table over its ``2n``
    outcomes (silent moves first), so zero-weight outcomes are never picked.
    """

    def __init__(self, D0: np.ndarray, D1: np.ndarray):
        exit_rates = -np.diag(D0)
        if np.any(exit_rates <= 0.0):
            raise ValidationError("every phase needs a positive total exit rate")
        weights = np.hstack([D0 - np.diag(np.diag(D0)), D1])
        tables = np.cumsum(weights, axis=1) / exit_rates[:, None]
        for row, row_weights in zip(tables, weights):
            # Round-off must not leave a uniform in [0, 1) past the table's
            # end or on a trailing zero-weight outcome.
            row[np.flatnonzero(row_weights > 0.0)[-1]:] = 1.0
        self._num_phases = D0.shape[0]
        self._mean_holds = (1.0 / exit_rates).tolist()
        self._tables = tables.tolist()

    def sample(self, rng: np.random.Generator, size: int, start: np.ndarray) -> np.ndarray:
        """``size`` consecutive intervals, the first starting in a phase drawn from ``start``."""
        num_phases = self._num_phases
        mean_holds = self._mean_holds
        tables = self._tables
        phase = int(rng.choice(num_phases, p=start))
        intervals = np.empty(size)
        # Every interval takes at least one step, so a short call draws no
        # more than it needs; a long one refills blocks of a bounded size.
        block = min(size, WALK_BLOCK)
        used = block
        for k in range(size):
            elapsed = 0.0
            while True:
                if used == block:
                    holds = rng.standard_exponential(block).tolist()
                    picks = rng.random(block).tolist()
                    used = 0
                elapsed += holds[used] * mean_holds[phase]
                phase = bisect_right(tables[phase], picks[used])
                used += 1
                if phase >= num_phases:
                    phase -= num_phases
                    break
            intervals[k] = elapsed
        return intervals


class MarkovianArrivalProcess(ArrivalProcess):
    """Markovian Arrival Process (MAP) defined by matrices ``D0`` and ``D1``.

    ``D0`` holds the rates of phase transitions without an arrival and ``D1``
    the rates of transitions that trigger an arrival; ``D0 + D1`` must be a
    conservative generator.  MAPs cover the correlated/bursty traffic the
    paper names as the main extension beyond Poisson input.
    """

    def __init__(self, D0: Sequence[Sequence[float]], D1: Sequence[Sequence[float]]):
        D0 = np.asarray(D0, dtype=float)
        D1 = np.asarray(D1, dtype=float)
        if D0.ndim != 2 or D0.shape[0] != D0.shape[1] or D0.shape != D1.shape:
            raise ValidationError("D0 and D1 must be square matrices of the same size")
        if np.any(D1 < -1e-12):
            raise ValidationError("D1 must be non-negative")
        off_diag = D0 - np.diag(np.diag(D0))
        if np.any(off_diag < -1e-12):
            raise ValidationError("off-diagonal entries of D0 must be non-negative")
        generator = D0 + D1
        if not np.allclose(generator.sum(axis=1), 0.0, atol=1e-8):
            raise ValidationError("D0 + D1 must have zero row sums")
        self._D0 = D0
        self._D1 = D1
        from repro.linalg.solvers import stationary_from_generator

        self._phase_distribution = stationary_from_generator(generator)
        self._rate = float(self._phase_distribution @ D1 @ np.ones(D0.shape[0]))
        if self._rate <= 0:
            raise ValidationError("MAP has zero arrival rate")
        self._walk = PhaseWalk(D0, D1)

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def D0(self) -> np.ndarray:
        return self._D0.copy()

    @property
    def D1(self) -> np.ndarray:
        return self._D1.copy()

    @property
    def num_phases(self) -> int:
        return self._D0.shape[0]

    def is_renewal(self) -> bool:
        return self.num_phases == 1

    def stationary_phase_distribution(self) -> np.ndarray:
        return self._phase_distribution.copy()

    # ------------------------------------------------------------------ #
    # Stationary interarrival-time structure (Palm calculus)
    # ------------------------------------------------------------------ #
    def embedded_transition_matrix(self) -> np.ndarray:
        """Phase-transition matrix ``P = (-D0)^{-1} D1`` at arrival epochs."""
        return np.linalg.solve(-self._D0, self._D1)

    def arrival_phase_distribution(self) -> np.ndarray:
        """Stationary phase distribution just after an arrival.

        The left eigenvector of the embedded chain ``P = (-D0)^{-1} D1``,
        equivalently ``pi D1 / rate`` with ``pi`` the time-stationary phase
        distribution — the Palm distribution under which the interarrival
        moments below are taken.
        """
        weights = self._phase_distribution @ self._D1
        return weights / weights.sum()

    def interarrival_moment(self, order: int) -> float:
        """``E[T^k]`` of the stationary interarrival time, ``k = order``.

        Closed form ``k! pi_a (-D0)^{-k} 1`` from the stationary-interval
        LST ``pi_a (sI - D0)^{-1} D1 1``.
        """
        if order < 1:
            raise ValidationError("moment order must be >= 1")
        vector = np.ones(self.num_phases)
        for _ in range(order):
            vector = np.linalg.solve(-self._D0, vector)
        return float(math.factorial(order) * (self.arrival_phase_distribution() @ vector))

    @property
    def interarrival_scv(self) -> float:
        """Squared coefficient of variation of the stationary interarrival time."""
        mean = self.interarrival_moment(1)
        return self.interarrival_moment(2) / mean ** 2 - 1.0

    def lag_autocovariance(self, lag: int) -> float:
        """``Cov[T_0, T_lag]`` between interarrival times ``lag`` apart.

        ``E[T_0 T_k] = pi_a (-D0)^{-1} P^k (-D0)^{-1} 1`` with ``P`` the
        embedded phase chain; a renewal MAP (one phase) has zero covariance
        at every positive lag.
        """
        if lag < 1:
            raise ValidationError("lag must be >= 1")
        transition = self.embedded_transition_matrix()
        vector = np.linalg.solve(-self._D0, np.ones(self.num_phases))
        vector = np.linalg.matrix_power(transition, lag) @ vector
        left = self.arrival_phase_distribution() @ np.linalg.inv(-self._D0)
        joint = float(left @ vector)
        return joint - self.interarrival_moment(1) ** 2

    def lag_autocorrelation(self, lag: int) -> float:
        """Lag-``k`` autocorrelation of the stationary interarrival sequence."""
        mean = self.interarrival_moment(1)
        variance = self.interarrival_moment(2) - mean ** 2
        if variance <= 0.0:
            return 0.0
        return self.lag_autocovariance(lag) / variance

    def asymptotic_idc(self) -> float:
        """Limiting index of dispersion for counts ``lim_t Var[N(t)] / E[N(t)]``.

        ``1 + 2 (pi D1 (1 pi - Q)^{-1} D1 1) / rate - 2 rate`` with
        ``Q = D0 + D1``; equals 1 for Poisson input and grows with
        burstiness (for MMPP2 it reduces to the classical
        ``1 + 2 s1 s2 (r1 - r2)^2 / ((s1 + s2)^2 (s2 r1 + s1 r2))``).
        """
        n = self.num_phases
        pi = self._phase_distribution
        ones = np.ones(n)
        fundamental = np.linalg.solve(np.outer(ones, pi) - (self._D0 + self._D1), self._D1 @ ones)
        return float(1.0 + 2.0 * (pi @ self._D1 @ fundamental) / self._rate - 2.0 * self._rate)

    def interarrival_lst(self, s: float) -> float:
        """LST of the *stationary* interarrival time, ``pi_a (sI - D0)^{-1} D1 1``.

        Exact for the marginal interval of any MAP; for a non-renewal MAP,
        feeding it to :func:`solve_sigma` yields the renewal approximation
        of the decay root (intervals are treated as i.i.d., their
        correlation is ignored).
        """
        matrix = s * np.eye(self.num_phases) - self._D0
        vector = np.linalg.solve(matrix, self._D1 @ np.ones(self.num_phases))
        return float(self.arrival_phase_distribution() @ vector)

    def rescaled(self, rate: float) -> "MarkovianArrivalProcess":
        """The same MAP with time rescaled so the aggregate rate is ``rate``.

        Multiplying ``D0`` and ``D1`` by a positive constant preserves every
        dimensionless burstiness statistic (SCV, lag correlations, IDC) —
        it is how a fitted shape is laid onto a spec's total arrival rate.
        """
        check_positive("rate", rate)
        factor = rate / self._rate
        return MarkovianArrivalProcess(self._D0 * factor, self._D1 * factor)

    def sample_interarrival_times(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample ``size`` consecutive interarrival times, starting time-stationary."""
        return self._walk.sample(rng, size, self._phase_distribution)

    def __repr__(self) -> str:
        return f"MarkovianArrivalProcess(phases={self.num_phases}, rate={self._rate:.4g})"

    @classmethod
    def mmpp2(cls, rate_high: float, rate_low: float, switch_to_low: float, switch_to_high: float) -> "MarkovianArrivalProcess":
        """Two-state Markov-Modulated Poisson Process — a standard bursty-traffic model."""
        check_positive("rate_high", rate_high)
        check_positive("rate_low", rate_low, strict=False)
        check_positive("switch_to_low", switch_to_low)
        check_positive("switch_to_high", switch_to_high)
        D1 = np.array([[rate_high, 0.0], [0.0, rate_low]])
        D0 = np.array(
            [
                [-(rate_high + switch_to_low), switch_to_low],
                [switch_to_high, -(rate_low + switch_to_high)],
            ]
        )
        return cls(D0, D1)


# --------------------------------------------------------------------------- #
# beta_k coefficients and the sigma root (Theorems 2-3)
# --------------------------------------------------------------------------- #
def beta_coefficients(arrival_process: ArrivalProcess, service_rate: float, max_k: int) -> List[float]:
    """Coefficients ``beta_k`` of Eq. (19) for ``k = 0 .. max_k``.

    ``beta_k`` is the probability that exactly ``k`` events of a Poisson
    process with rate ``service_rate`` fall inside one interarrival time.
    For Poisson arrivals with rate ``lambda`` the closed form
    ``beta_k = rho / (1 + rho)^{k+1}`` of the paper's appendix is used;
    otherwise the integral is evaluated numerically against the sampled
    interarrival density via Gauss quadrature on the LST derivatives.
    """
    check_positive("service_rate", service_rate)
    if max_k < 0:
        raise ValidationError("max_k must be non-negative")

    if isinstance(arrival_process, PoissonArrivals):
        rho = arrival_process.rate / service_rate
        return [rho / (1.0 + rho) ** (k + 1) for k in range(max_k + 1)]

    if isinstance(arrival_process, MarkovianArrivalProcess):
        # Stationary-interval density pi_a e^{D0 t} D1 1 gives the closed form
        # beta_k = mu^k pi_a (mu I - D0)^{-(k+1)} D1 1 — no quadrature needed.
        n = arrival_process.num_phases
        matrix = service_rate * np.eye(n) - arrival_process.D0
        vector = arrival_process.D1 @ np.ones(n)
        pi_a = arrival_process.arrival_phase_distribution()
        coefficients = []
        vector = np.linalg.solve(matrix, vector)
        for k in range(max_k + 1):
            coefficients.append(float(service_rate ** k * (pi_a @ vector)))
            vector = np.linalg.solve(matrix, vector)
        return coefficients

    distribution = getattr(arrival_process, "interarrival_distribution", None)
    if distribution is not None and hasattr(distribution, "pdf"):
        from scipy import integrate

        coefficients = []
        for k in range(max_k + 1):
            def integrand(t: float, k: int = k) -> float:
                if t <= 0:
                    return 0.0
                log_term = k * math.log(service_rate * t) - service_rate * t - math.lgamma(k + 1)
                return math.exp(log_term) * distribution.pdf(t)

            value, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
            coefficients.append(float(value))
        return coefficients

    if distribution is not None and hasattr(distribution, "atoms"):
        # Discrete (e.g. deterministic) interarrival distributions.
        coefficients = []
        for k in range(max_k + 1):
            value = 0.0
            for time, weight in distribution.atoms():
                log_term = k * math.log(service_rate * time) - service_rate * time - math.lgamma(k + 1) if time > 0 else (-math.inf if k > 0 else 0.0)
                value += weight * (math.exp(log_term) if log_term != -math.inf else 0.0)
            coefficients.append(float(value))
        return coefficients

    raise ValidationError(
        "beta coefficients require a Poisson process or a renewal process with a density/atomic interarrival distribution"
    )


def solve_sigma(arrival_process: ArrivalProcess, service_rate: float = 1.0, tolerance: float = 1e-12) -> float:
    """Solve the fixed-point equation of Theorem 2 for ``sigma`` in ``(0, 1)``.

    Uses the identity ``sum_k x^k beta_k = LST_A(service_rate * (1 - x))`` so
    the equation becomes the classical GI/M/1 root equation
    ``x = A*(mu (1 - x))``.  Requires the stability condition
    ``arrival rate < service_rate``.
    """
    check_positive("service_rate", service_rate)
    rho = arrival_process.rate / service_rate
    if rho >= 1.0:
        raise ValidationError(f"sigma only exists under stability (rho = {rho:.4f} >= 1)")
    if isinstance(arrival_process, PoissonArrivals):
        return rho

    # Memoize LST evaluations for the duration of the solve: brentq and the
    # fallback iteration revisit bracket endpoints, and each evaluation can
    # cost a scipy quadrature for interarrival laws without closed forms.
    lst_cache: dict = {}

    def cached_lst(s: float) -> float:
        value = lst_cache.get(s)
        if value is None:
            value = lst_cache[s] = arrival_process.interarrival_lst(s)
        return value

    def fixed_point_gap(x: float) -> float:
        return cached_lst(service_rate * (1.0 - x)) - x

    # fixed_point_gap(0) = A*(mu) > 0 and fixed_point_gap(1) = 0; the root in
    # (0, 1) is the unique point where the convex transform crosses x.
    upper = 1.0 - 1e-12
    if fixed_point_gap(upper) > 0:
        # Transform still above the diagonal just below 1 would contradict
        # stability; fall back to iteration from rho.
        x = rho
        for _ in range(10_000):
            next_x = cached_lst(service_rate * (1.0 - x))
            if abs(next_x - x) < tolerance:
                return float(next_x)
            x = next_x
        raise ValidationError("sigma fixed-point iteration did not converge")
    # Bisection bracket: move the lower end up until the gap changes sign.
    probe = rho / 2 if rho > 0 else 0.25
    while fixed_point_gap(probe) <= 0 and probe > 1e-15:
        probe /= 2
    lower = probe if fixed_point_gap(probe) > 0 else 0.0
    from scipy import optimize

    root = optimize.brentq(fixed_point_gap, lower, upper, xtol=tolerance)
    return float(root)

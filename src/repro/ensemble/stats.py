"""Replication statistics: means, variances and Student-t confidence intervals.

Every quantity an ensemble run reports is a *replication mean*: ``K``
independent simulations produce ``K`` estimates of (say) the mean sojourn
time, and the across-replication sample mean/variance yield a Student-t
confidence interval for the true finite-``N`` expectation.  This is the
standard independent-replications method for steady-state simulation output
analysis; it is what lets a finite-``N`` point estimate be compared
meaningfully against a mean-field limit curve (inside vs outside the
interval) instead of eyeballing two bare numbers.

Everything here is dependency-light — ``math`` only, no scipy.  The Student-t
quantile is computed by bisecting the exact CDF, itself evaluated through the
regularized incomplete beta function (Lentz's continued fraction, the
classical ``betacf`` scheme), accurate to ~1e-10 across all practical
``(confidence, df)`` pairs.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, Iterable, Sequence, Tuple

from repro.utils.validation import ValidationError, check_integer, check_positive

__all__ = [
    "ReplicationStatistics",
    "student_t_cdf",
    "student_t_quantile",
    "summarize",
]


def _betacf(a: float, b: float, x: float, max_iterations: int = 200, epsilon: float = 3e-14) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < epsilon:
            return h
    return h


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, the regularized incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Use the continued fraction directly where it converges fast, else the
    # symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom.

    Parameters
    ----------
    t : float
        Evaluation point.
    df : float
        Degrees of freedom, > 0.

    Returns
    -------
    float
        ``P(T <= t)`` for ``T ~ t(df)``.
    """
    check_positive("df", df)
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * _regularized_incomplete_beta(0.5 * df, 0.5, x)
    return 1.0 - tail if t > 0 else tail


@functools.lru_cache(maxsize=256)
def student_t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value ``t*`` for a confidence interval.

    Memoized per ``(confidence, df)``: the bisection costs up to a
    millisecond, and every interval of a run asks for the same few values.

    Parameters
    ----------
    confidence : float
        Two-sided confidence level in (0, 1), e.g. ``0.95``.
    df : int
        Degrees of freedom (number of replications minus one), >= 1.

    Returns
    -------
    float
        ``t*`` such that ``P(|T| <= t*) = confidence`` for ``T ~ t(df)``;
        the CI half-width is ``t* * s / sqrt(K)``.
    """
    if not (0.0 < confidence < 1.0):
        raise ValidationError(f"confidence must be in (0, 1), got {confidence!r}")
    df = check_integer("df", df, minimum=1)
    target = 0.5 + 0.5 * confidence  # upper-tail probability of +t*
    low, high = 0.0, 2.0
    while student_t_cdf(high, df) < target:
        high *= 2.0
        if high > 1e9:  # pragma: no cover - unreachable for valid inputs
            break
    for _ in range(200):
        mid = 0.5 * (low + high)
        if student_t_cdf(mid, df) < target:
            low = mid
        else:
            high = mid
        if high - low < 1e-12 * max(1.0, high):
            break
    return 0.5 * (low + high)


class ReplicationStatistics:
    """Across-replication summary of one scalar metric, in O(1) memory.

    The package's one statistics core: every reported mean and Student-t
    interval, in memory or durable, comes from this accumulator.  It keeps
    the count, Welford's running mean and sum of squared deviations ``M2``
    and the extremes, never the samples, so folding the same values in the
    same order gives bitwise-identical summaries whichever session folded
    them.  Welford's update also avoids the catastrophic cancellation of
    the naive sum-of-squares form.

    Parameters
    ----------
    confidence : float
        Two-sided confidence level of :attr:`half_width` (default 0.95).

    Attributes
    ----------
    n : int
        Number of replications folded.
    mean : float
        Running sample mean (``0.0`` while empty).
    minimum, maximum : float
        Extremes of the folded values (``inf`` / ``-inf`` while empty).
    """

    __slots__ = ("confidence", "n", "mean", "_m2", "minimum", "maximum")

    def __init__(self, confidence: float = 0.95) -> None:
        if not (0.0 < confidence < 1.0):
            raise ValidationError(f"confidence must be in (0, 1), got {confidence!r}")
        self.confidence = confidence
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @classmethod
    def from_samples(cls, samples: Iterable[float], confidence: float = 0.95) -> "ReplicationStatistics":
        """Fold ``samples`` in order; at least one sample is required."""
        statistics = cls(confidence)
        for value in samples:
            statistics.add(value)
        if statistics.n == 0:
            raise ValidationError("ReplicationStatistics needs at least one sample")
        return statistics

    def add(self, value: float) -> None:
        """Fold one replication value (Welford's update)."""
        value = float(value)
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Unbiased sample variance (ddof=1); ``nan`` below two replications."""
        if self.n < 2:
            return float("nan")
        return self._m2 / (self.n - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation; ``nan`` below two replications."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else float("nan")

    @property
    def standard_error(self) -> float:
        """Standard error of the mean, ``s / sqrt(K)``."""
        if self.n < 1:
            return float("nan")
        return self.std / math.sqrt(self.n)

    @property
    def half_width(self) -> float:
        """Student-t CI half-width at :attr:`confidence`; ``nan`` if K < 2."""
        variance = self.variance
        if variance != variance:
            return float("nan")
        return student_t_quantile(self.confidence, self.n - 1) * self.standard_error

    @property
    def relative_half_width(self) -> float:
        """Half-width over |mean| — the precision the stopping rule targets."""
        mean = self.mean
        if mean == 0.0:
            return float("inf")
        return self.half_width / abs(mean)

    def confidence_interval(self) -> Tuple[float, float]:
        """``(lower, upper)`` of the two-sided CI at :attr:`confidence`."""
        half = self.half_width
        mean = self.mean
        return (mean - half, mean + half)

    def precision_reached(self, target_relative_half_width: float) -> bool:
        """True once the relative half-width is at or below the target.

        This is the classical *relative-precision sequential stopping rule*:
        keep adding replications until ``half_width / |mean| <= target``.
        Returns ``False`` while fewer than two replications exist (no
        variance estimate yet).
        """
        check_positive("target_relative_half_width", target_relative_half_width)
        relative = self.relative_half_width
        return relative == relative and relative <= target_relative_half_width

    def to_dict(self) -> Dict[str, Any]:
        """Flat summary (count, mean, variance, CI, extremes) for export."""
        return {
            "n": self.n,
            "mean": self.mean,
            "variance": self.variance,
            "std": self.std,
            "half_width": self.half_width,
            "min": self.minimum if self.n else float("nan"),
            "max": self.maximum if self.n else float("nan"),
        }

    def __str__(self) -> str:
        if self.n < 2:
            return f"{self.mean:.6g} (1 replication, no CI)"
        return (
            f"{self.mean:.6g} ± {self.half_width:.3g} "
            f"({self.confidence:.0%} CI, {self.n} replications)"
        )


def summarize(samples: Sequence[float], confidence: float = 0.95) -> ReplicationStatistics:
    """Shorthand for :meth:`ReplicationStatistics.from_samples`."""
    return ReplicationStatistics.from_samples(samples, confidence=confidence)

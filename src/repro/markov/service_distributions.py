"""Service-time (and interarrival-time) distributions.

The paper's base model uses exponential unit-mean service; its future-work
section points at phase-type (PH) service and non-Poisson arrivals.  The
catalogue here provides exponential, Erlang, hyperexponential, deterministic
and general phase-type distributions with a uniform interface: ``mean``,
``variance``, ``scv`` (squared coefficient of variation), ``sample`` and the
Laplace–Stieltjes transform ``lst`` used by the GI/M/1-type sigma root of
Theorem 2.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

import numpy as np

from repro.markov.arrival_processes import PhaseWalk
from repro.utils.validation import ValidationError, check_positive, check_probability


class ServiceDistribution(ABC):
    """Abstract base class for non-negative distributions."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @property
    @abstractmethod
    def variance(self) -> float:
        """Variance."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent samples."""

    @abstractmethod
    def lst(self, s: float) -> float:
        """Laplace–Stieltjes transform ``E[e^{-s X}]`` for ``s >= 0``."""

    @property
    def scv(self) -> float:
        """Squared coefficient of variation ``Var[X] / E[X]^2``."""
        return self.variance / self.mean ** 2

    @property
    def rate(self) -> float:
        """Reciprocal of the mean (service rate when used as a service time)."""
        return 1.0 / self.mean


class ExponentialService(ServiceDistribution):
    """Exponential distribution with the given rate (mean ``1/rate``)."""

    def __init__(self, rate: float = 1.0):
        self._rate = check_positive("rate", rate)

    @property
    def mean(self) -> float:
        return 1.0 / self._rate

    @property
    def variance(self) -> float:
        return 1.0 / self._rate ** 2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self._rate, size=size)

    def lst(self, s: float) -> float:
        return self._rate / (self._rate + s)

    def pdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        return self._rate * math.exp(-self._rate * t)

    def __repr__(self) -> str:
        return f"ExponentialService(rate={self._rate})"


class ErlangService(ServiceDistribution):
    """Erlang distribution: sum of ``stages`` exponentials, total mean ``mean``."""

    def __init__(self, stages: int, mean: float = 1.0):
        if stages < 1:
            raise ValidationError("stages must be at least 1")
        self._stages = int(stages)
        self._mean = check_positive("mean", mean)
        self._stage_rate = self._stages / self._mean

    @property
    def stages(self) -> int:
        return self._stages

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._stages / self._stage_rate ** 2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(shape=self._stages, scale=1.0 / self._stage_rate, size=size)

    def lst(self, s: float) -> float:
        return (self._stage_rate / (self._stage_rate + s)) ** self._stages

    def pdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        k, rate = self._stages, self._stage_rate
        return rate ** k * t ** (k - 1) * math.exp(-rate * t) / math.factorial(k - 1)

    def __repr__(self) -> str:
        return f"ErlangService(stages={self._stages}, mean={self._mean})"


class HyperexponentialService(ServiceDistribution):
    """Mixture of exponentials: with probability ``p_i`` the sample is Exp(rate_i)."""

    def __init__(self, probabilities: Sequence[float], rates: Sequence[float]):
        if len(probabilities) != len(rates) or not probabilities:
            raise ValidationError("probabilities and rates must be non-empty and of equal length")
        total = sum(probabilities)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValidationError(f"mixture probabilities must sum to 1, got {total}")
        self._probabilities = [check_probability(f"probabilities[{i}]", p) for i, p in enumerate(probabilities)]
        self._rates = [check_positive(f"rates[{i}]", r) for i, r in enumerate(rates)]

    @property
    def mean(self) -> float:
        return sum(p / r for p, r in zip(self._probabilities, self._rates))

    @property
    def variance(self) -> float:
        second_moment = sum(2.0 * p / r ** 2 for p, r in zip(self._probabilities, self._rates))
        return second_moment - self.mean ** 2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        branches = rng.choice(len(self._rates), size=size, p=self._probabilities)
        scales = np.array([1.0 / r for r in self._rates])
        return rng.exponential(scales[branches])

    def lst(self, s: float) -> float:
        return sum(p * r / (r + s) for p, r in zip(self._probabilities, self._rates))

    def pdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        return sum(p * r * math.exp(-r * t) for p, r in zip(self._probabilities, self._rates))

    @classmethod
    def balanced_two_phase(cls, mean: float, scv: float) -> "HyperexponentialService":
        """Two-phase hyperexponential with balanced means matching ``mean`` and ``scv >= 1``."""
        check_positive("mean", mean)
        if scv < 1.0:
            raise ValidationError("a hyperexponential distribution requires scv >= 1")
        p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
        rate1 = 2.0 * p / mean
        rate2 = 2.0 * (1.0 - p) / mean
        return cls([p, 1.0 - p], [rate1, rate2])

    def __repr__(self) -> str:
        return f"HyperexponentialService(probabilities={self._probabilities}, rates={self._rates})"


class DeterministicService(ServiceDistribution):
    """Degenerate distribution concentrated at a single value."""

    def __init__(self, value: float):
        self._value = check_positive("value", value)

    @property
    def mean(self) -> float:
        return self._value

    @property
    def variance(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self._value)

    def lst(self, s: float) -> float:
        return math.exp(-s * self._value)

    def atoms(self) -> List[Tuple[float, float]]:
        """Support points and weights (used by the beta_k integrals)."""
        return [(self._value, 1.0)]

    def __repr__(self) -> str:
        return f"DeterministicService(value={self._value})"


class PhaseTypeService(ServiceDistribution):
    """General (continuous) phase-type distribution ``PH(alpha, S)``.

    ``alpha`` is the initial phase distribution and ``S`` the sub-generator of
    the transient phases; absorption rates are ``-S @ 1``.
    """

    def __init__(self, alpha: Sequence[float], S: Sequence[Sequence[float]]):
        alpha = np.asarray(alpha, dtype=float)
        S = np.asarray(S, dtype=float)
        if alpha.ndim != 1 or S.shape != (alpha.size, alpha.size):
            raise ValidationError("alpha must be a vector and S a matching square matrix")
        if not math.isclose(alpha.sum(), 1.0, abs_tol=1e-9):
            raise ValidationError("alpha must sum to 1")
        if np.any(alpha < -1e-12):
            raise ValidationError("alpha must be non-negative")
        off_diag = S - np.diag(np.diag(S))
        if np.any(off_diag < -1e-12):
            raise ValidationError("off-diagonal entries of S must be non-negative")
        exit_rates = -S.sum(axis=1)
        if np.any(exit_rates < -1e-9):
            raise ValidationError("S must have non-positive row sums (valid sub-generator)")
        self._alpha = np.clip(alpha, 0.0, None)
        self._alpha = self._alpha / self._alpha.sum()
        self._S = S
        self._exit_rates = np.clip(exit_rates, 0.0, None)
        self._walk = PhaseWalk(S, np.outer(self._exit_rates, self._alpha))
        self._mean = float(-self._alpha @ np.linalg.solve(S, np.ones(alpha.size)))
        inverse = np.linalg.inv(S)
        self._second_moment = float(2.0 * self._alpha @ inverse @ inverse @ np.ones(alpha.size))

    @property
    def num_phases(self) -> int:
        return self._alpha.size

    @property
    def initial_distribution(self) -> np.ndarray:
        """The initial phase distribution ``alpha``."""
        return self._alpha.copy()

    @property
    def subgenerator(self) -> np.ndarray:
        """The transient-phase sub-generator ``S``."""
        return self._S.copy()

    @property
    def absorption_rates(self) -> np.ndarray:
        """Absorption (service-completion) rates ``s0 = -S 1``."""
        return self._exit_rates.copy()

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._second_moment - self._mean ** 2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Absorption followed by a restart drawn from alpha is a marked move
        # of the MAP (S, s0 alpha), so its intervals are i.i.d. PH samples.
        return self._walk.sample(rng, size, self._alpha)

    def lst(self, s: float) -> float:
        n = self.num_phases
        matrix = s * np.eye(n) - self._S
        return float(self._alpha @ np.linalg.solve(matrix, self._exit_rates))

    def pdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        from scipy.linalg import expm

        return float(self._alpha @ expm(self._S * t) @ self._exit_rates)

    @classmethod
    def from_erlang(cls, stages: int, mean: float = 1.0) -> "PhaseTypeService":
        """Phase-type representation of an Erlang distribution (cross-check helper)."""
        if stages < 1:
            raise ValidationError("stages must be at least 1")
        rate = stages / mean
        alpha = np.zeros(stages)
        alpha[0] = 1.0
        S = np.zeros((stages, stages))
        for i in range(stages):
            S[i, i] = -rate
            if i + 1 < stages:
                S[i, i + 1] = rate
        return cls(alpha, S)

    @classmethod
    def from_exponential(cls, rate: float) -> "PhaseTypeService":
        """Single-phase representation of an exponential distribution."""
        check_positive("rate", rate)
        return cls(np.array([1.0]), np.array([[-rate]]))

    @classmethod
    def from_hyperexponential(cls, probabilities: Sequence[float], rates: Sequence[float]) -> "PhaseTypeService":
        """Phase-type representation of a hyperexponential mixture."""
        hyper = HyperexponentialService(probabilities, rates)
        alpha = np.array(hyper._probabilities)  # validated by the constructor above
        S = -np.diag(hyper._rates)
        return cls(alpha, S)

    def __repr__(self) -> str:
        return f"PhaseTypeService(phases={self.num_phases}, mean={self._mean:.4g})"

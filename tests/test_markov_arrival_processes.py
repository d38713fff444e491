"""Tests for arrival processes, the beta_k coefficients and the sigma root."""

import numpy as np
import pytest

from repro.markov.arrival_processes import (
    MarkovianArrivalProcess,
    PoissonArrivals,
    RenewalArrivals,
    beta_coefficients,
    solve_sigma,
)
from repro.markov.service_distributions import (
    DeterministicService,
    ErlangService,
    ExponentialService,
    HyperexponentialService,
)
from repro.utils.validation import ValidationError


class TestPoissonArrivals:
    def test_rate_and_mean(self):
        process = PoissonArrivals(2.5)
        assert process.rate == 2.5
        assert process.mean_interarrival_time() == pytest.approx(0.4)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValidationError):
            PoissonArrivals(0.0)

    def test_sample_mean_matches_rate(self, rng):
        process = PoissonArrivals(4.0)
        samples = process.sample_interarrival_times(rng, 20000)
        assert samples.mean() == pytest.approx(0.25, rel=0.05)

    def test_lst_closed_form(self):
        process = PoissonArrivals(2.0)
        assert process.interarrival_lst(3.0) == pytest.approx(2.0 / 5.0)


class TestRenewalArrivals:
    def test_rate_from_distribution_mean(self):
        process = RenewalArrivals(ErlangService(stages=2, mean=0.5))
        assert process.rate == pytest.approx(2.0)

    def test_lst_delegates_to_distribution(self):
        erlang = ErlangService(stages=2, mean=1.0)
        process = RenewalArrivals(erlang)
        assert process.interarrival_lst(1.0) == pytest.approx(erlang.lst(1.0))

    def test_sampling_uses_distribution(self, rng):
        process = RenewalArrivals(DeterministicService(0.25))
        samples = process.sample_interarrival_times(rng, 10)
        assert np.allclose(samples, 0.25)


class TestBetaCoefficients:
    def test_poisson_closed_form(self):
        # beta_k = rho / (1 + rho)^{k+1} — the paper's Eq. (21) rewritten.
        process = PoissonArrivals(0.8)
        coefficients = beta_coefficients(process, service_rate=1.0, max_k=6)
        rho = 0.8
        expected = [rho / (1 + rho) ** (k + 1) for k in range(7)]
        assert np.allclose(coefficients, expected)

    def test_poisson_coefficients_sum_to_one(self):
        process = PoissonArrivals(0.5)
        coefficients = beta_coefficients(process, service_rate=1.0, max_k=200)
        assert sum(coefficients) == pytest.approx(1.0, abs=1e-8)

    def test_erlang_interarrivals_by_quadrature(self):
        # For Erlang(2) interarrivals the beta_k have a negative-binomial form;
        # check the numerically integrated values against that closed form.
        mean_interarrival = 1.25
        process = RenewalArrivals(ErlangService(stages=2, mean=mean_interarrival))
        mu = 1.0
        coefficients = beta_coefficients(process, service_rate=mu, max_k=5)
        stage_rate = 2 / mean_interarrival
        p = stage_rate / (stage_rate + mu)  # success = stage completes before service event
        from math import comb

        expected = [comb(k + 1, 1) * (p ** 2) * ((1 - p) ** k) for k in range(6)]
        assert np.allclose(coefficients, expected, atol=1e-8)

    def test_deterministic_interarrivals_are_poisson_probabilities(self):
        process = RenewalArrivals(DeterministicService(2.0))
        coefficients = beta_coefficients(process, service_rate=1.5, max_k=4)
        from scipy.stats import poisson

        expected = poisson.pmf(range(5), 3.0)
        assert np.allclose(coefficients, expected, atol=1e-10)

    def test_invalid_max_k_rejected(self):
        with pytest.raises(ValidationError):
            beta_coefficients(PoissonArrivals(1.0), 1.0, -1)


class TestSolveSigma:
    def test_poisson_sigma_equals_rho(self):
        # Theorem 3: for Poisson arrivals the root is the traffic intensity.
        assert solve_sigma(PoissonArrivals(0.7), service_rate=1.0) == pytest.approx(0.7)

    def test_sigma_solves_fixed_point_for_erlang(self):
        process = RenewalArrivals(ErlangService(stages=3, mean=2.0))
        mu = 1.0
        sigma = solve_sigma(process, service_rate=mu)
        assert 0 < sigma < 1
        assert process.interarrival_lst(mu * (1 - sigma)) == pytest.approx(sigma, abs=1e-9)

    def test_sigma_smaller_for_smoother_arrivals(self):
        # At equal rates, more regular (Erlang) arrivals yield a smaller sigma
        # (shorter queues) than Poisson, and bursty hyperexponential arrivals a
        # larger one — the classical GI/M/1 ordering.
        rate = 0.8
        poisson_sigma = solve_sigma(PoissonArrivals(rate), 1.0)
        erlang_sigma = solve_sigma(RenewalArrivals(ErlangService(stages=4, mean=1 / rate)), 1.0)
        bursty = RenewalArrivals(HyperexponentialService.balanced_two_phase(mean=1 / rate, scv=5.0))
        bursty_sigma = solve_sigma(bursty, 1.0)
        assert erlang_sigma < poisson_sigma < bursty_sigma

    def test_unstable_input_rejected(self):
        with pytest.raises(ValidationError):
            solve_sigma(PoissonArrivals(1.5), service_rate=1.0)


class TestMarkovianArrivalProcess:
    def test_poisson_as_one_phase_map(self):
        process = MarkovianArrivalProcess([[-2.0]], [[2.0]])
        assert process.rate == pytest.approx(2.0)
        assert process.is_renewal()

    def test_mmpp2_rate_is_phase_weighted(self):
        process = MarkovianArrivalProcess.mmpp2(rate_high=3.0, rate_low=0.5, switch_to_low=1.0, switch_to_high=1.0)
        assert process.num_phases == 2
        assert 0.5 < process.rate < 3.0
        assert process.rate == pytest.approx(1.75, rel=1e-6)

    def test_invalid_generator_rejected(self):
        with pytest.raises(ValidationError):
            MarkovianArrivalProcess([[-1.0]], [[2.0]])  # rows of D0+D1 must sum to zero

    def test_phase_without_exits_rejected(self):
        # Phase 1 is never left: a sample path started there has no arrivals.
        with pytest.raises(ValidationError, match="exit rate"):
            MarkovianArrivalProcess([[-1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])

    def test_sample_mean_matches_rate(self, rng):
        process = MarkovianArrivalProcess.mmpp2(rate_high=3.0, rate_low=1.0, switch_to_low=0.5, switch_to_high=0.5)
        samples = process.sample_interarrival_times(rng, 4000)
        assert samples.mean() == pytest.approx(1.0 / process.rate, rel=0.1)

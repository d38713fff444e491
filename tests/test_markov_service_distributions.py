"""Tests for the service-time distribution catalogue."""

import numpy as np
import pytest

from repro.markov.service_distributions import (
    DeterministicService,
    ErlangService,
    ExponentialService,
    HyperexponentialService,
    PhaseTypeService,
)
from repro.utils.validation import ValidationError


class TestExponentialService:
    def test_moments(self):
        dist = ExponentialService(2.0)
        assert dist.mean == pytest.approx(0.5)
        assert dist.variance == pytest.approx(0.25)
        assert dist.scv == pytest.approx(1.0)

    def test_lst(self):
        dist = ExponentialService(1.0)
        assert dist.lst(0.0) == pytest.approx(1.0)
        assert dist.lst(1.0) == pytest.approx(0.5)

    def test_sampling_moments(self, rng):
        dist = ExponentialService(1.0)
        samples = dist.sample(rng, 50_000)
        assert samples.mean() == pytest.approx(1.0, rel=0.03)

    def test_invalid_rate(self):
        with pytest.raises(ValidationError):
            ExponentialService(-1.0)


class TestErlangService:
    def test_moments_and_scv(self):
        dist = ErlangService(stages=4, mean=2.0)
        assert dist.mean == pytest.approx(2.0)
        assert dist.scv == pytest.approx(0.25)

    def test_single_stage_is_exponential(self):
        erlang = ErlangService(stages=1, mean=1.0)
        exponential = ExponentialService(1.0)
        for s in (0.0, 0.5, 2.0):
            assert erlang.lst(s) == pytest.approx(exponential.lst(s))

    def test_pdf_integrates_to_one(self):
        from scipy.integrate import quad

        dist = ErlangService(stages=3, mean=1.0)
        total, _ = quad(dist.pdf, 0, 50)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_invalid_stages(self):
        with pytest.raises(ValidationError):
            ErlangService(stages=0)


class TestHyperexponentialService:
    def test_moments(self):
        dist = HyperexponentialService([0.5, 0.5], [1.0, 2.0])
        assert dist.mean == pytest.approx(0.75)
        assert dist.scv >= 1.0

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            HyperexponentialService([0.5, 0.4], [1.0, 2.0])

    def test_balanced_two_phase_matches_targets(self):
        dist = HyperexponentialService.balanced_two_phase(mean=2.0, scv=4.0)
        assert dist.mean == pytest.approx(2.0)
        assert dist.scv == pytest.approx(4.0, rel=1e-6)

    def test_balanced_two_phase_requires_scv_at_least_one(self):
        with pytest.raises(ValidationError):
            HyperexponentialService.balanced_two_phase(mean=1.0, scv=0.5)

    def test_sampling_mean(self, rng):
        dist = HyperexponentialService.balanced_two_phase(mean=1.0, scv=5.0)
        samples = dist.sample(rng, 100_000)
        assert samples.mean() == pytest.approx(1.0, rel=0.05)


class TestDeterministicService:
    def test_moments(self):
        dist = DeterministicService(3.0)
        assert dist.mean == 3.0
        assert dist.variance == 0.0
        assert dist.scv == 0.0

    def test_samples_are_constant(self, rng):
        assert np.all(DeterministicService(1.5).sample(rng, 5) == 1.5)

    def test_lst(self):
        dist = DeterministicService(2.0)
        assert dist.lst(1.0) == pytest.approx(np.exp(-2.0))

    def test_atoms(self):
        assert DeterministicService(2.0).atoms() == [(2.0, 1.0)]


class TestPhaseTypeService:
    def test_erlang_representation_matches_erlang(self):
        ph = PhaseTypeService.from_erlang(stages=3, mean=1.5)
        erlang = ErlangService(stages=3, mean=1.5)
        assert ph.mean == pytest.approx(erlang.mean)
        assert ph.variance == pytest.approx(erlang.variance)
        for s in (0.1, 1.0, 3.0):
            assert ph.lst(s) == pytest.approx(erlang.lst(s), rel=1e-9)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValidationError):
            PhaseTypeService([0.5, 0.4], [[-1.0, 0.0], [0.0, -1.0]])

    def test_invalid_subgenerator_rejected(self):
        with pytest.raises(ValidationError):
            PhaseTypeService([1.0], [[1.0]])  # positive diagonal is not a sub-generator

    def test_sampling_mean(self, rng):
        ph = PhaseTypeService.from_erlang(stages=2, mean=1.0)
        samples = ph.sample(rng, 5_000)
        assert samples.mean() == pytest.approx(1.0, rel=0.1)

    @pytest.mark.parametrize(
        "ph",
        [
            PhaseTypeService.from_erlang(stages=3, mean=1.0),
            PhaseTypeService.from_hyperexponential([0.3, 0.7], [0.5, 4.0]),
        ],
        ids=["erlang3", "hyperexponential2"],
    )
    def test_sampling_law_across_seeds(self, ph):
        statistics = []
        for seed in range(30):
            samples = ph.sample(np.random.default_rng(seed), 20_000)
            statistics.append((samples.mean(), samples.var() / samples.mean() ** 2))
        statistics = np.array(statistics)
        errors = statistics.std(axis=0, ddof=1) / np.sqrt(len(statistics))
        for mean, error, exact in zip(statistics.mean(axis=0), errors, (ph.mean, ph.scv)):
            assert abs(mean - exact) <= 4.0 * error, (mean, exact, error)

    def test_pdf_positive_and_decaying(self):
        ph = PhaseTypeService.from_erlang(stages=2, mean=1.0)
        assert ph.pdf(0.5) > 0
        assert ph.pdf(50.0) < 1e-10

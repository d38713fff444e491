"""Burstiness statistics: estimator sanity plus the MMPP2 sampling contract.

The second half is the satellite guarantee of this PR: seeded empirical
rate, SCV and lag-1 autocorrelation of
``MarkovianArrivalProcess.sample_interarrival_times`` must match the
analytic values the new closed-form MAP methods report — the simulators and
the asymptotics must be talking about the same process.
"""

import numpy as np
import pytest

from repro.markov.arrival_processes import MarkovianArrivalProcess, PoissonArrivals
from repro.traces import (
    ArrivalTrace,
    TraceError,
    index_of_dispersion,
    interarrival_scv,
    lag_autocorrelation,
    summarize_trace,
    synthesize_trace,
)


@pytest.fixture(scope="module")
def poisson_trace() -> ArrivalTrace:
    return synthesize_trace(PoissonArrivals(5.0), 40_000, seed=7)


@pytest.fixture(scope="module")
def mmpp_process() -> MarkovianArrivalProcess:
    return MarkovianArrivalProcess.mmpp2(
        rate_high=3.0, rate_low=0.4, switch_to_low=0.05, switch_to_high=0.04
    )


@pytest.fixture(scope="module")
def erlang2_map() -> MarkovianArrivalProcess:
    # Erlang-2 interarrivals (SCV 1/2, renewal): every arrival moves phase
    # 1 -> 0, an off-diagonal D1 that no MMPP has.
    return MarkovianArrivalProcess([[-2.0, 2.0], [0.0, -2.0]], [[0.0, 0.0], [2.0, 0.0]])


@pytest.fixture(scope="module")
def mmpp_samples(mmpp_process) -> np.ndarray:
    rng = np.random.default_rng(20160627)
    return mmpp_process.sample_interarrival_times(rng, 60_000)


class TestEstimators:
    def test_poisson_is_the_neutral_point(self, poisson_trace):
        summary = summarize_trace(poisson_trace)
        assert summary.rate == pytest.approx(5.0, rel=0.05)
        assert summary.scv == pytest.approx(1.0, rel=0.05)
        assert abs(summary.lag1) < 0.02
        for _, idc in summary.idc:
            assert idc == pytest.approx(1.0, abs=0.25)
        assert not summary.is_bursty

    def test_deterministic_trace_has_zero_scv(self):
        trace = ArrivalTrace(np.arange(200) * 0.5)
        assert interarrival_scv(trace) == pytest.approx(0.0, abs=1e-12)
        assert index_of_dispersion(trace, window=5.0) == pytest.approx(0.0, abs=1e-12)

    def test_lag_autocorrelation_detects_alternation(self):
        # Strictly alternating short/long gaps: lag-1 negative, lag-2 positive.
        gaps = np.tile([0.1, 1.9], 500)
        trace = ArrivalTrace(np.concatenate([[0.0], np.cumsum(gaps)]))
        assert lag_autocorrelation(trace, 1) == pytest.approx(-1.0, abs=0.01)
        assert lag_autocorrelation(trace, 2) == pytest.approx(1.0, abs=0.01)

    def test_statistics_validate_their_inputs(self, poisson_trace):
        tiny = ArrivalTrace([0.0, 1.0])
        with pytest.raises(TraceError):
            interarrival_scv(tiny)
        with pytest.raises(TraceError):
            lag_autocorrelation(poisson_trace, 0)
        with pytest.raises(TraceError):
            index_of_dispersion(poisson_trace, -1.0)
        with pytest.raises(TraceError):
            # Window longer than half the span: fewer than 2 full windows.
            index_of_dispersion(poisson_trace, poisson_trace.duration)

    def test_summary_serializes(self, poisson_trace):
        summary = summarize_trace(poisson_trace, lags=(1, 3))
        payload = summary.to_dict()
        assert set(payload["autocorrelations"]) == {"1", "3"}
        assert "interarrival SCV" in summary.as_table()
        assert summary.lag1 == dict(summary.autocorrelations)[1]

    def test_skips_lags_and_windows_that_do_not_fit(self):
        trace = ArrivalTrace(np.cumsum(np.full(12, 1.0)))
        summary = summarize_trace(trace, lags=(1, 50), idc_windows=(2.0, 100.0))
        assert [lag for lag, _ in summary.autocorrelations] == [1]
        assert [window for window, _ in summary.idc] == [2.0]


class TestMMPP2SamplingMatchesAnalytic:
    """Satellite: empirical sampling moments vs the closed MAP formulas."""

    def test_empirical_rate(self, mmpp_process, mmpp_samples):
        empirical_rate = 1.0 / mmpp_samples.mean()
        assert empirical_rate == pytest.approx(mmpp_process.rate, rel=0.03)
        # ... and the analytic stationary mean interval agrees with 1/rate.
        assert mmpp_process.interarrival_moment(1) == pytest.approx(
            1.0 / mmpp_process.rate, rel=1e-9
        )

    def test_empirical_scv(self, mmpp_process, mmpp_samples):
        scv = mmpp_samples.var() / mmpp_samples.mean() ** 2
        assert scv == pytest.approx(mmpp_process.interarrival_scv, rel=0.08)

    def test_empirical_lag1_autocorrelation(self, mmpp_process, mmpp_samples):
        centered = mmpp_samples - mmpp_samples.mean()
        lag1 = float(np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered))
        assert lag1 == pytest.approx(mmpp_process.lag_autocorrelation(1), rel=0.10)

    def test_empirical_idc_approaches_analytic_limit(self, mmpp_process):
        trace = synthesize_trace(mmpp_process, 60_000, seed=11)
        summary = summarize_trace(trace)
        # IDC(t) increases towards IDC(inf); the largest finite window must
        # land in the right ballpark (between the SCV and the limit).
        limit = mmpp_process.asymptotic_idc()
        assert mmpp_process.interarrival_scv < summary.max_idc < 1.3 * limit

    def test_trace_summary_agrees_with_analytics(self, mmpp_process):
        trace = synthesize_trace(mmpp_process, 60_000, seed=13)
        summary = summarize_trace(trace)
        # One 60k-arrival trace's rate spreads by about 2% (one sd), so one
        # trace is not held to 5%: the mean rate of 30 traces (this seed and
        # the next 29) must lie within 4 standard errors of the analytic rate.
        rates = [summary.rate] + [
            summarize_trace(synthesize_trace(mmpp_process, 60_000, seed=seed)).rate
            for seed in range(14, 43)
        ]
        error = np.std(rates, ddof=1) / np.sqrt(len(rates))
        assert abs(np.mean(rates) - mmpp_process.rate) <= 4.0 * error, (
            np.mean(rates),
            mmpp_process.rate,
            error,
        )
        assert summary.scv == pytest.approx(mmpp_process.interarrival_scv, rel=0.10)
        assert summary.lag1 == pytest.approx(
            mmpp_process.lag_autocorrelation(1), rel=0.15
        )
        assert summary.is_bursty


class TestMAPSamplingLawAcrossSeeds:
    """The sampler's law, not one draw: 30 seeded samples of 60k variates.

    The mean over seeds of the empirical rate, SCV and lag-1
    autocorrelation must lie within 4 standard errors of the analytic value.
    """

    @pytest.mark.parametrize("name", ["mmpp2", "erlang2"])
    def test_rate_scv_and_lag1(self, name, mmpp_process, erlang2_map):
        process = mmpp_process if name == "mmpp2" else erlang2_map
        statistics = []
        for seed in range(30):
            samples = process.sample_interarrival_times(np.random.default_rng(seed), 60_000)
            centered = samples - samples.mean()
            statistics.append(
                (
                    1.0 / samples.mean(),
                    samples.var() / samples.mean() ** 2,
                    float(np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered)),
                )
            )
        statistics = np.array(statistics)
        errors = statistics.std(axis=0, ddof=1) / np.sqrt(len(statistics))
        exact = (process.rate, process.interarrival_scv, process.lag_autocorrelation(1))
        for label, mean, error, value in zip(("rate", "scv", "lag1"), statistics.mean(axis=0), errors, exact):
            assert abs(mean - value) <= 4.0 * error, (label, mean, value, error)

    def test_erlang2_map_analytics(self, erlang2_map):
        assert erlang2_map.rate == pytest.approx(1.0)
        assert erlang2_map.interarrival_scv == pytest.approx(0.5)
        assert erlang2_map.lag_autocorrelation(1) == pytest.approx(0.0, abs=1e-12)

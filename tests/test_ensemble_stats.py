"""Tests for the dependency-light replication statistics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ensemble.stats import (
    ReplicationStatistics,
    student_t_cdf,
    student_t_quantile,
    summarize,
)
from repro.utils.validation import ValidationError


class TestStudentT:
    # Reference values from standard t tables.
    @pytest.mark.parametrize(
        "confidence, df, expected",
        [
            (0.95, 1, 12.7062),
            (0.95, 2, 4.3027),
            (0.95, 7, 2.3646),
            (0.95, 30, 2.0423),
            (0.99, 10, 3.1693),
            (0.90, 5, 2.0150),
        ],
    )
    def test_quantile_matches_tables(self, confidence, df, expected):
        assert student_t_quantile(confidence, df) == pytest.approx(expected, abs=2e-3)

    def test_quantile_approaches_normal_for_large_df(self):
        assert student_t_quantile(0.95, 10_000) == pytest.approx(1.96, abs=5e-3)

    def test_cdf_symmetry_and_midpoint(self):
        assert student_t_cdf(0.0, 5) == pytest.approx(0.5)
        assert student_t_cdf(1.3, 5) + student_t_cdf(-1.3, 5) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_is_monotone(self):
        values = [student_t_cdf(t, 4) for t in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        assert values == sorted(values)

    def test_quantile_inverts_cdf(self):
        t_star = student_t_quantile(0.95, 9)
        assert student_t_cdf(t_star, 9) == pytest.approx(0.975, abs=1e-9)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            student_t_quantile(1.0, 5)
        with pytest.raises(ValidationError):
            student_t_quantile(0.0, 5)
        with pytest.raises(ValidationError):
            student_t_quantile(0.95, 0)

    def test_quantile_is_memoized(self, monkeypatch):
        import repro.ensemble.stats as stats_module

        calls = []
        cdf = stats_module.student_t_cdf

        def counting_cdf(t, df):
            calls.append(t)
            return cdf(t, df)

        monkeypatch.setattr(stats_module, "student_t_cdf", counting_cdf)
        student_t_quantile.cache_clear()
        first = student_t_quantile(0.95, 63)
        assert calls, "the first call must bisect"
        calls.clear()
        assert student_t_quantile(0.95, 63) == first
        assert calls == []
        # Errors are not cached: an invalid call raises every time.
        for _ in range(2):
            with pytest.raises(ValidationError):
                student_t_quantile(0.95, 0)


class TestReplicationStatistics:
    def test_mean_variance_and_interval(self):
        stats = ReplicationStatistics.from_samples([2.0, 4.0, 6.0, 8.0])
        assert stats.n == 4
        assert stats.mean == pytest.approx(5.0)
        assert stats.variance == pytest.approx(20.0 / 3.0)
        assert stats.standard_error == pytest.approx(math.sqrt(20.0 / 3.0) / 2.0)
        expected_half = student_t_quantile(0.95, 3) * stats.standard_error
        assert stats.half_width == pytest.approx(expected_half)
        low, high = stats.confidence_interval()
        assert low == pytest.approx(5.0 - expected_half)
        assert high == pytest.approx(5.0 + expected_half)

    def test_single_sample_has_no_interval(self):
        stats = summarize([3.5])
        assert stats.mean == 3.5
        assert math.isnan(stats.variance)
        assert math.isnan(stats.half_width)
        assert "no CI" in str(stats)

    def test_precision_stopping_rule(self):
        tight = summarize([10.0, 10.01, 9.99, 10.0])
        loose = summarize([10.0, 20.0, 5.0, 15.0])
        assert tight.precision_reached(0.01)
        assert not loose.precision_reached(0.01)
        # One sample: no variance estimate, never "reached".
        assert not summarize([10.0]).precision_reached(0.5)

    def test_relative_half_width(self):
        stats = summarize([2.0, 2.2, 1.8, 2.0])
        assert stats.relative_half_width == pytest.approx(stats.half_width / 2.0)

    def test_str_reports_ci(self):
        text = str(summarize([1.0, 2.0, 3.0]))
        assert "±" in text and "95%" in text and "3 replications" in text

    def test_validation(self):
        with pytest.raises(ValidationError):
            ReplicationStatistics.from_samples([])
        with pytest.raises(ValidationError):
            ReplicationStatistics.from_samples([1.0, 2.0], confidence=1.5)
        with pytest.raises(ValidationError):
            summarize([1.0, 2.0]).precision_reached(-0.1)

    def test_custom_confidence_level(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        wide = ReplicationStatistics.from_samples(samples, confidence=0.99)
        narrow = ReplicationStatistics.from_samples(samples, confidence=0.90)
        assert wide.half_width > narrow.half_width


def test_importing_the_package_loads_no_scipy_stats():
    # Intervals are computed here with math only, and the functions that
    # integrate, root-find, fit or solve sparse systems import scipy where
    # they call it: importing any of scipy would add its load time and
    # memory to every interpreter start.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, repro; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"

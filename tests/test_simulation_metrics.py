"""Tests for simulation output analysis."""

import math

import pytest

from repro.simulation.metrics import WaitingTimeAccumulator


class TestWaitingTimeAccumulator:
    def test_warmup_jobs_are_discarded(self):
        accumulator = WaitingTimeAccumulator(warmup_jobs=2)
        for i in range(5):
            accumulator.record(float(i), float(i) + 1.0)
        assert accumulator.recorded_jobs == 3
        assert accumulator.discarded_jobs == 2
        assert accumulator.mean_waiting_time() == pytest.approx(3.0)
        assert accumulator.mean_sojourn_time() == pytest.approx(4.0)

    def test_no_warmup(self):
        accumulator = WaitingTimeAccumulator()
        accumulator.record(1.0, 2.0)
        assert accumulator.recorded_jobs == 1
        assert accumulator.waiting_times().tolist() == [1.0]

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            WaitingTimeAccumulator(warmup_jobs=-1)

    def test_empty_accumulator_reports_nan(self):
        accumulator = WaitingTimeAccumulator()
        assert math.isnan(accumulator.mean_waiting_time())

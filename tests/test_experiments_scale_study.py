"""Tests for the large-N scale study experiment."""

import pytest

from repro.experiments.scale_study import ScaleStudyConfig, ScaleStudyResult, run_scale_study
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def small_study() -> ScaleStudyResult:
    config = ScaleStudyConfig(
        server_counts=(10, 100, 1_000),
        d=2,
        utilization=0.9,
        num_events=120_000,
        bounds_max_servers=10,
    )
    return run_scale_study(config)


class TestScaleStudy:
    def test_one_record_per_pool_size(self, small_study):
        assert small_study.column("N") == [10, 100, 1_000]
        assert len(small_study.fleet_results) == 3

    def test_bounds_only_for_small_n(self, small_study):
        lower = small_study.column("lower_bound")
        assert lower[0] is not None
        assert lower[1] is None and lower[2] is None

    def test_bounds_bracket_the_simulation(self, small_study):
        record = small_study.records[0]
        assert record["lower_bound"] <= record["fleet_delay"] * 1.10
        if record["upper_bound"] is not None:
            assert record["fleet_delay"] <= record["upper_bound"] * 1.10

    def test_error_shrinks_towards_large_n(self, small_study):
        errors = small_study.column("relative_error_percent")
        assert errors[-1] < errors[0]
        assert errors[-1] < 10.0

    def test_table_renders(self, small_study):
        table = small_study.as_table()
        assert "scale study" in table
        assert "fleet delay" in table

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            ScaleStudyConfig(utilization=1.2)
        with pytest.raises(ValidationError):
            ScaleStudyConfig(server_counts=(1,), d=2)

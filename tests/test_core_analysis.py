"""Tests for the high-level analyze_sqd API."""

import pytest

from repro import ExperimentSpec, run
from repro.core.analysis import analyze_sqd
from repro.core.bound_models import LowerBoundModel
from repro.core.model import SQDModel
from repro.core.qbd_solver import SolutionMethod, solve_bound_model
from repro.utils.validation import ValidationError


class TestAnalyzeSqd:
    def test_default_analysis_contains_bounds_and_asymptotic(self):
        analysis = analyze_sqd(num_servers=3, d=2, utilization=0.7, threshold=2)
        assert analysis.lower_delay > 1.0
        assert analysis.upper_delay is not None
        assert analysis.lower_delay < analysis.upper_delay
        assert analysis.asymptotic_delay > 1.0

    def test_lower_bound_methods_agree(self):
        # analyze_sqd's lower bound is Theorem 3's scalar form; Theorem 1's
        # matrix-geometric solve of the same model agrees.
        scalar = analyze_sqd(3, 2, 0.8, threshold=2)
        assert scalar.lower_bound.method is SolutionMethod.SCALAR_GEOMETRIC
        matrix = solve_bound_model(LowerBoundModel(SQDModel(3, 2, 0.8), 2).qbd_blocks(), "matrix-geometric")
        assert scalar.lower_delay == pytest.approx(matrix.mean_delay, rel=1e-9)

    def test_optional_simulation_and_exact(self):
        analysis = analyze_sqd(num_servers=3, d=2, utilization=0.6, threshold=2)
        spec = ExperimentSpec.create(
            num_servers=3, d=2, utilization=0.6, num_events=60_000, seed=3, buffer_size=20
        )
        simulated = run(spec, backend="fleet").mean_delay
        exact = run(spec, backend="exact").mean_delay
        # Sandwich: lower <= exact <= upper; simulation agrees with exact.
        assert analysis.lower_delay <= exact + 1e-9
        assert exact <= analysis.upper_delay + 1e-9
        assert simulated == pytest.approx(exact, rel=0.1)

    def test_unstable_upper_bound_reported_not_raised(self):
        analysis = analyze_sqd(num_servers=3, d=2, utilization=0.9, threshold=1)
        assert analysis.upper_bound is None
        assert analysis.upper_bound_unstable
        assert analysis.lower_delay > 1.0

    def test_summary_row_fields(self):
        analysis = analyze_sqd(3, 2, 0.7, threshold=2)
        row = analysis.summary_row()
        assert row["N"] == 3 and row["d"] == 2 and row["T"] == 2
        assert row["lower_bound"] == pytest.approx(analysis.lower_delay)

    def test_unstable_model_rejected(self):
        with pytest.raises(ValidationError):
            analyze_sqd(3, 2, 1.0, threshold=2)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(Exception):
            analyze_sqd(3, 2, 0.5, threshold=0)

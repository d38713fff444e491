"""Tests for repro.run and the unified RunResult."""

import json
import math

import pytest

from repro import ExperimentSpec, RunResult, SpecError, run


FAST = dict(num_servers=50, utilization=0.8, num_events=5_000, seed=11)


class TestRun:
    def test_single_run_has_no_interval(self):
        result = run(ExperimentSpec.create(**FAST))
        assert result.backend == "fleet"
        assert result.replications == 1
        assert math.isnan(result.half_width)
        assert result.mean_delay > 1.0

    def test_replicated_run_reports_interval(self):
        result = run(ExperimentSpec.create(**FAST), replications=4)
        assert result.replications == 4
        assert math.isfinite(result.half_width)
        low, high = result.confidence_interval()
        assert low < result.mean_delay < high
        assert len(result.records) == 4

    def test_accepts_json_and_mapping_specs(self):
        spec = ExperimentSpec.create(**FAST)
        from_object = run(spec)
        from_json = run(spec.to_json())
        from_dict = run(spec.to_dict())
        assert from_object.mean_delay == from_json.mean_delay == from_dict.mean_delay

    def test_deterministic_backends_collapse_replications(self):
        result = run(
            ExperimentSpec.create(num_servers=6, utilization=0.7, threshold=2),
            backend="qbd_bounds",
            replications=8,
        )
        assert result.replications == 1
        assert result.answer == "bounds"
        assert result.extras["upper_delay"] >= result.mean_delay

    def test_explicit_backend_overrides_auto(self):
        result = run(ExperimentSpec.create(**FAST), backend="meanfield")
        assert result.backend == "meanfield"
        assert result.answer == "limit"

    def test_incapable_backend_raises_spec_error(self):
        with pytest.raises(SpecError, match="cannot run this spec"):
            run(ExperimentSpec.create(**FAST), backend="exact")

    def test_seed_override_changes_the_draw_and_is_recorded(self):
        spec = ExperimentSpec.create(**FAST)
        a = run(spec)
        b = run(spec, seed=999)
        c = run(spec)
        assert a.mean_delay == c.mean_delay  # spec seed is the default
        assert a.mean_delay != b.mean_delay
        # The override lands in the result's spec, so the exported spec
        # reproduces exactly what ran.
        assert b.spec.seed == 999
        assert run(b.spec).mean_delay == b.mean_delay

    def test_run_is_deterministic_across_worker_counts(self):
        spec = ExperimentSpec.create(**FAST)
        serial = run(spec, replications=4, workers=1)
        parallel = run(spec, replications=4, workers=3)
        assert serial.mean_delay == parallel.mean_delay
        assert serial.half_width == parallel.half_width

    def test_adaptive_precision_mode(self):
        result = run(
            ExperimentSpec.create(**FAST),
            replications=2,
            target_relative_half_width=0.5,
            max_replications=8,
        )
        assert 2 <= result.replications <= 8

    def test_invalid_replications_rejected(self):
        with pytest.raises(SpecError, match="replications"):
            run(ExperimentSpec.create(**FAST), replications=0)

    @pytest.mark.parametrize("replications", [1, 3])
    @pytest.mark.parametrize(
        "arguments, fragment",
        [
            ({"confidence": 2.0}, "confidence"),
            ({"workers": 0}, "workers"),
            ({"max_replications": 0}, "max_replications"),
            # The adaptive start is max(K, 2), so a cap of 1 is below it at any K.
            ({"target_relative_half_width": 0.01, "max_replications": 1}, "max_replications"),
            ({"target_relative_half_width": -1.0}, "target_relative_half_width"),
        ],
        ids=["confidence", "workers", "cap", "cap-below-k", "target"],
    )
    def test_arguments_are_checked_whatever_the_replication_count(
        self, replications, arguments, fragment, monkeypatch
    ):
        from repro.api.engines import FleetBackend
        from repro.utils.validation import ValidationError

        def never(*args, **kwargs):
            raise AssertionError("a run with invalid arguments must not start")

        monkeypatch.setattr(FleetBackend, "run_once", never)
        with pytest.raises(ValidationError, match=fragment):
            run(ExperimentSpec.create(**FAST), replications=replications, **arguments)

    def test_single_run_extras_carry_no_wall_clock(self):
        from repro.ensemble.runner import EnsembleResult

        result = run(ExperimentSpec.create(**FAST))
        assert not set(EnsembleResult.TIMING_KEYS) & set(result.extras)
        assert "events_per_second" in result.records[0]  # the record keeps it
        assert "events_per_second" not in result.as_table()

    def test_garbage_spec_rejected(self):
        with pytest.raises(SpecError, match="spec must be"):
            run(42)


class TestRunResult:
    def test_json_round_trips_through_shared_dialect(self):
        result = run(ExperimentSpec.create(**FAST), replications=2)
        payload = json.loads(result.to_json())
        assert payload["backend"] == "fleet"
        assert payload["replications"] == 2
        assert payload["spec"]["system"]["num_servers"] == 50
        assert {"package_version", "git", "python", "timestamp"} <= set(payload["provenance"])

    def test_nan_and_inf_serialize_as_strings(self):
        bracket = run(
            ExperimentSpec.create(num_servers=3, utilization=0.9, threshold=1),
            backend="qbd_bounds",
        )
        payload = json.loads(bracket.to_json())
        # This configuration's upper bound is unstable -> inf, and a single
        # run has no CI -> nan; both must survive strict JSON parsing.
        assert payload["extras"]["upper_delay"] == "inf"
        assert payload["half_width"] == "nan"

    def test_write_json(self, tmp_path):
        result = run(ExperimentSpec.create(**FAST))
        path = result.write_json(tmp_path / "out" / "result.json")
        assert path.exists()
        assert json.loads(path.read_text())["backend"] == "fleet"

    def test_str_and_table(self):
        result = run(ExperimentSpec.create(**FAST), replications=3)
        assert "3 replications" in str(result)
        table = result.as_table()
        assert "mean_delay" in table and "fleet" in table

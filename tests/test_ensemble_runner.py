"""Tests for the parallel multi-replication ensemble runner."""

import math
import tempfile

import numpy as np
import pytest

from repro import run
from repro.api.spec import ExperimentSpec, SpecError
from repro.ensemble.runner import EnsembleConfig, run_ensemble, run_ensembles
from repro.utils.seeding import spawn_seeds
from repro.utils.validation import ValidationError

FLEET_SPEC = ExperimentSpec.create(num_servers=100, utilization=0.8, num_events=10_000)


class TestSeedDerivation:
    def test_spawn_seeds_deterministic_and_sliceable(self):
        full = spawn_seeds(42, 10)
        assert spawn_seeds(42, 10) == full
        # Extending an ensemble reproduces exactly the tail of the sequence.
        assert spawn_seeds(42, 4, start=6) == full[6:]
        # Far into the sequence, still exactly the SeedSequence.spawn children.
        spawned = np.random.SeedSequence(42).spawn(1002)[1000:]
        assert spawn_seeds(42, 2, start=1000) == [
            int(child.generate_state(1, np.uint64)[0]) for child in spawned
        ]

    def test_spawn_seeds_distinct(self):
        seeds = spawn_seeds(7, 50)
        assert len(set(seeds)) == 50

    def test_spawn_seeds_validation(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)
        with pytest.raises(ValueError):
            spawn_seeds(1, 1, start=-2)


class TestRunEnsemble:
    def test_replications_use_distinct_seeds(self):
        result = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=4, seed=1)
        seeds = [record["seed"] for record in result.records]
        delays = result.samples("mean_delay")
        assert len(set(seeds)) == 4
        assert len(set(delays)) == 4  # different streams, different realizations
        assert [record["replication"] for record in result.records] == [0, 1, 2, 3]

    def test_bitwise_deterministic_across_worker_counts(self):
        serial = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=4, workers=1, seed=5)
        parallel = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=4, workers=3, seed=5)
        assert serial.simulation_records() == parallel.simulation_records()

    def test_statistics_and_delay_shortcut(self):
        result = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=3, seed=2)
        stats = result.delay
        assert stats.n == 3
        assert stats.mean == pytest.approx(sum(result.samples("mean_delay")) / 3)
        assert math.isfinite(stats.half_width)

    def test_unknown_metric_rejected(self):
        result = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=2, seed=2)
        with pytest.raises(ValidationError, match="unknown metric"):
            result.samples("nonexistent")

    def test_seed_defaults_to_the_spec_seed(self):
        # Same replication seeds as repro.run, which derives them from spec.seed.
        spec = ExperimentSpec.create(num_servers=50, d=2, utilization=0.8, num_events=5_000, seed=7)
        ensemble = run_ensemble(spec=spec, backend="fleet", replications=3)
        via_run = run(spec, backend="fleet", replications=3)
        assert ensemble.config.seed == 7
        assert ensemble.simulation_records() == [
            {key: value for key, value in record.items() if key not in ensemble.TIMING_KEYS}
            for record in via_run.records
        ]
        # An explicit None still asks for a non-reproducible ensemble.
        assert EnsembleConfig(spec=spec, backend="fleet", seed=None).seed is None

    def test_cluster_kind(self):
        result = run_ensemble(
            spec=ExperimentSpec.create(num_servers=5, d=2, utilization=0.7, num_jobs=5_000),
            backend="cluster",
            replications=2,
            seed=4,
        )
        assert result.replications == 2
        assert all(record["mean_delay"] > 1.0 for record in result.records)

    def test_scenario_kind(self):
        result = run_ensemble(
            spec=ExperimentSpec.create(
                num_servers=100,
                d=2,
                scenario="constant",
                scenario_params={"duration": 10.0, "warmup_time": 2.0},
            ),
            backend="fleet",
            replications=2,
            seed=5,
        )
        assert result.replications == 2
        assert all(record["mean_delay"] > 0.0 for record in result.records)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_ensembles_equals_one_call_per_ensemble(self, workers):
        fixed = EnsembleConfig(
            spec=FLEET_SPEC, backend="fleet", replications=3, workers=workers, seed=3
        )
        adaptive = EnsembleConfig(
            spec=ExperimentSpec.create(num_servers=5, d=2, utilization=0.7, num_jobs=2_000),
            backend="cluster",
            replications=2,
            workers=workers,
            seed=4,
            target_relative_half_width=1e-9,  # unreachable: runs to the cap
            max_replications=5,
            batch_size=2,
        )
        together = run_ensembles([fixed, adaptive])
        alone = [run_ensemble(config=fixed), run_ensemble(config=adaptive)]
        assert [result.config for result in together] == [fixed, adaptive]
        assert [result.replications for result in together] == [3, 5]
        assert [result.simulation_records() for result in together] == [
            result.simulation_records() for result in alone
        ]

    def test_in_memory_runs_write_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=2, seed=1)
        run(FLEET_SPEC, backend="fleet", replications=2, workers=2)
        assert list(tmp_path.iterdir()) == []

    def test_as_table_summarizes_metrics(self):
        result = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=3, seed=6)
        table = result.as_table()
        assert "mean_delay" in table and "±95% CI" in table
        # wall-clock noise is excluded from the deterministic table
        assert "wall_seconds" not in table and "events_per_second" not in table


class TestAdaptiveStopping:
    def test_stops_at_target_precision(self):
        result = run_ensemble(
            spec=ExperimentSpec.create(num_servers=10, d=2, utilization=0.5, num_events=30_000),
            backend="fleet",
            replications=2,
            seed=7,
            target_relative_half_width=0.2,
            max_replications=32,
        )
        assert 2 <= result.replications <= 32
        if result.replications < 32:
            assert result.delay.precision_reached(0.2)

    def test_respects_max_replications(self):
        result = run_ensemble(
            spec=ExperimentSpec.create(num_servers=10, d=2, utilization=0.9, num_events=2_000),
            backend="fleet",
            replications=2,
            seed=8,
            target_relative_half_width=1e-9,  # unreachable
            max_replications=6,
            batch_size=2,
        )
        assert result.replications == 6

    def test_adaptive_extension_reuses_prefix_seeds(self):
        fixed = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=2, seed=9)
        adaptive = run_ensemble(
            spec=FLEET_SPEC,
            backend="fleet",
            replications=2,
            seed=9,
            target_relative_half_width=1e-9,
            max_replications=6,
            batch_size=2,
        )
        assert adaptive.replications == 6
        # The first two replications are bitwise those of the fixed run.
        assert adaptive.simulation_records()[:2] == fixed.simulation_records()


class TestEnsembleConfig:
    def test_non_spec_rejected(self):
        with pytest.raises(SpecError, match="ExperimentSpec"):
            EnsembleConfig(spec="quantum")
        # The removed (kind, parameters) call shape fails the same way.
        with pytest.raises(SpecError, match="ExperimentSpec"):
            run_ensemble("fleet", {"num_servers": 100})

    def test_replicating_deterministic_backends_rejected(self):
        with pytest.raises(SpecError, match="deterministic"):
            EnsembleConfig(
                spec=ExperimentSpec.create(num_servers=5, utilization=0.5),
                backend="meanfield",
            )

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValidationError, match="confidence"):
            EnsembleConfig(spec=FLEET_SPEC, confidence=0.0)

    def test_max_replications_must_cover_initial_in_adaptive_mode(self):
        with pytest.raises(ValidationError, match="max_replications"):
            EnsembleConfig(
                spec=FLEET_SPEC,
                replications=10,
                max_replications=5,
                target_relative_half_width=0.05,
            )

    def test_fixed_count_ignores_max_replications_cap(self):
        # Without a precision target the cap is irrelevant: asking for more
        # replications than the (adaptive-mode) default cap must be legal.
        config = EnsembleConfig(spec=FLEET_SPEC, replications=100)
        assert config.replications == 100

    def test_invalid_target_rejected(self):
        with pytest.raises(ValidationError, match="target_relative_half_width"):
            EnsembleConfig(spec=FLEET_SPEC, target_relative_half_width=-0.1)

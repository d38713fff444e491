"""Tests for the sweep-grid engine and the JSONL result store."""

import json

import pytest

from repro.api.spec import ExperimentSpec, SpecError
from repro.ensemble.grid import GridConfig, run_grid
from repro.ensemble.results import ResultStore, git_describe, provenance, read_jsonl
from repro.ensemble.runner import run_ensemble
from repro.utils.validation import ValidationError


class TestGrid:
    def test_cartesian_expansion_skips_d_above_n(self):
        config = GridConfig(server_counts=(1, 10), choices=(2,), utilizations=(0.5, 0.9))
        points = config.points()
        # N=1 < d=2 is skipped; N=10 pairs with both utilizations.
        assert len(points) == 2
        assert all(point["labels"]["N"] == 10 for point in points)

    def test_grid_runs_all_points(self):
        config = GridConfig(
            server_counts=(20, 50),
            choices=(2,),
            utilizations=(0.7,),
            num_events=5_000,
            replications=2,
            seed=11,
        )
        result = run_grid(config)
        assert len(result.points) == 2
        assert result.total_replications == 4
        table = result.as_table()
        assert "mean_delay" in table and "replications" in table

    def test_grid_deterministic_across_worker_counts(self):
        config = dict(
            server_counts=(20, 40), utilizations=(0.8,), num_events=5_000, replications=2, seed=12
        )
        serial = run_grid(GridConfig(workers=1, **config))
        parallel = run_grid(GridConfig(workers=3, **config))
        assert [p.ensemble.simulation_records() for p in serial.points] == [
            p.ensemble.simulation_records() for p in parallel.points
        ]

    def test_point_reproducible_in_isolation(self):
        """A grid point's seed reproduces it exactly through run_ensemble."""
        config = GridConfig(
            server_counts=(30,), utilizations=(0.8,), num_events=5_000, replications=3, seed=13
        )
        grid = run_grid(config)
        point = grid.points[0]
        standalone = run_ensemble(
            spec=point.ensemble.config.spec,
            backend="fleet",
            replications=3,
            seed=point.ensemble.config.seed,
        )
        assert standalone.simulation_records() == point.ensemble.simulation_records()

    def test_extending_an_axis_keeps_existing_points_bitwise_stable(self):
        """Point seeds are content-addressed, not positional: adding a value
        to a swept axis must not reseed the points that already existed."""
        base = dict(server_counts=(20, 40), num_events=4_000, replications=2, seed=15)
        small = run_grid(GridConfig(utilizations=(0.8,), **base))
        extended = run_grid(GridConfig(utilizations=(0.8, 0.9), **base))
        stable = {
            tuple(sorted(point.labels.items())): point.ensemble.simulation_records()
            for point in extended.points
        }
        for point in small.points:
            key = tuple(sorted(point.labels.items()))
            assert stable[key] == point.ensemble.simulation_records()

    def test_scenario_grid(self):
        config = GridConfig(
            server_counts=(50,),
            scenarios=("constant",),
            replications=2,
            seed=14,
        )
        result = run_grid(config)
        assert len(result.points) == 1
        assert result.points[0].labels["scenario"] == "constant"
        assert result.points[0].summary_row()["mean_delay"] > 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridConfig(replications=0)
        with pytest.raises(ValidationError):
            GridConfig(confidence=2.0)

    def test_invalid_points_fail_at_construction(self):
        # Not later, when a campaign directory may already exist.
        with pytest.raises(SpecError, match="utilization"):
            GridConfig(utilizations=(1.5,))
        with pytest.raises(SpecError, match="policy"):
            GridConfig(policy="nope")
        with pytest.raises(SpecError, match="scenario"):
            GridConfig(scenarios=("nope",))


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.append({"a": 1, "b": 2.5})
        store.append({"a": 2, "b": 3.5})
        records = store.load()
        assert len(store) == 2
        assert records[0]["a"] == 1 and records[1]["b"] == 3.5
        assert list(iter(store))[1]["a"] == 2

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == []

    def test_jsonl_is_one_object_per_line(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        store = ResultStore(path)
        store.append({"x": 1})
        store.append({"x": 2})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"x": 1}\n\n{"x": 2}\n')
        assert [record["x"] for record in read_jsonl(path)] == [1, 2]

    def test_pre_spec_jsonl_records_load(self, tmp_path):
        # A verbatim line from a store written before records carried a spec.
        old_record = {
            "kind": "fleet",
            "parameters": {"num_servers": 50, "utilization": 0.7, "num_events": 5000},
            "ensemble_seed": 21,
            "confidence": 0.95,
            "provenance": {"package_version": "1.2.0", "git": None, "python": "3.12.0",
                           "timestamp": "2026-07-01T00:00:00+00:00"},
            "replication": 0,
            "seed": 1234567,
            "mean_delay": 1.83,
            "wall_seconds": 0.4,
        }
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(old_record) + "\n")
        assert ResultStore(path).load() == [old_record]


class TestProvenance:
    def test_provenance_keys(self):
        info = provenance()
        assert set(info) == {"package_version", "git", "python", "timestamp"}
        assert info["package_version"]

    def test_git_describe_of_this_repo(self):
        # The test tree is a git checkout, so a describe string should exist;
        # outside one the function must degrade to None, not raise.
        description = git_describe(__file__)
        assert description is None or isinstance(description, str)

    def test_git_describe_outside_repo(self, tmp_path):
        assert git_describe(tmp_path) is None

    def test_provenance_spawns_git_once_per_process(self, monkeypatch):
        import repro.ensemble.results as results_module

        spawns = []
        run = results_module.subprocess.run

        def counting_run(*args, **kwargs):
            spawns.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr("repro.ensemble.results.subprocess.run", counting_run)
        results_module._package_git_describe.cache_clear()
        values = [provenance()["git"] for _ in range(3)]
        assert len(spawns) == 1
        assert values[0] == values[1] == values[2]
        # An explicit path is never cached.
        git_describe(__file__)
        assert len(spawns) == 2

"""Regression tests: seeded runs are bitwise identical across processes.

The reproducibility contract of the CLI and the ensemble runner is stronger
than "statistically the same": with a fixed ``--seed``, every simulated
number must be *bitwise identical* across runs, across separate operating
system processes, and across worker counts.  These tests spawn fresh python
interpreters (not just fresh calls in this process) so they would catch any
dependence on process-level state — hash randomization, global RNG state,
scheduling order of pool workers, or dict ordering leaking into seeds.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def _run_cli(*arguments: str) -> str:
    """Run ``repro-lb`` in a fresh interpreter and return its stdout."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"},
        cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _simulated_lines(stdout: str) -> list:
    """Drop wall-clock diagnostic lines — the only legitimate variation."""
    return [line for line in stdout.splitlines() if not line.startswith("wall-clock")]


class TestFleetSeedDeterminism:
    def test_fleet_seed_bitwise_identical_across_processes(self):
        arguments = ("fleet", "-N", "500", "-u", "0.8", "--events", "40000", "--seed", "3")
        first = _run_cli(*arguments)
        second = _run_cli(*arguments)
        assert _simulated_lines(first) == _simulated_lines(second)
        # The filter removed exactly the wall-clock line, nothing else.
        assert len(first.splitlines()) - len(_simulated_lines(first)) == 1

    def test_fleet_scenario_bitwise_identical_across_processes(self):
        arguments = ("fleet", "-N", "300", "--scenario", "flash-crowd", "--seed", "4")
        first = _run_cli(*arguments)
        assert _simulated_lines(first) == _simulated_lines(_run_cli(*arguments))
        assert "phase3_mean_delay" in first

    def test_fleet_different_seed_changes_output(self):
        base = ("fleet", "-N", "500", "-u", "0.8", "--events", "40000", "--seed")
        assert _simulated_lines(_run_cli(*base, "3")) != _simulated_lines(_run_cli(*base, "4"))


class TestEnsembleSeedDeterminism:
    def test_ensemble_bitwise_identical_across_processes_and_workers(self):
        base = (
            "fleet", "-N", "300", "-d", "2", "-u", "0.9",
            "--replications", "3", "--events", "20000", "--seed", "17",
        )
        first = _run_cli(*base, "--workers", "1")
        second = _run_cli(*base, "--workers", "1")
        parallel = _run_cli(*base, "--workers", "2")
        assert _simulated_lines(first) == _simulated_lines(second)
        # Worker count must not leak into the simulated numbers either.
        assert _simulated_lines(first) == _simulated_lines(parallel)

    def test_ensemble_json_records_identical_across_processes(self, tmp_path):
        import json

        from repro.ensemble.runner import EnsembleResult

        base = (
            "fleet", "-N", "200", "-u", "0.8",
            "--replications", "2", "--events", "10000", "--seed", "23",
        )
        runs = []
        for index in range(2):
            path = tmp_path / f"run{index}.json"
            _run_cli(*base, "--json", str(path))
            payload = json.loads(path.read_text())
            # Strip what is legitimately run-dependent: wall-clock times and
            # the provenance timestamp.
            for key in ("wall_seconds", "provenance"):
                payload.pop(key)
            for record in payload["records"]:
                for key in EnsembleResult.TIMING_KEYS:
                    record.pop(key)
            runs.append(payload)
        assert runs[0] == runs[1]
        assert len(runs[0]["records"]) == 2


class TestRunSpecDeterminism:
    def test_run_spec_on_a_fleet_spec_bitwise_identical_across_processes(self, tmp_path):
        from repro import ExperimentSpec

        spec = ExperimentSpec.create(num_servers=500, utilization=0.8, num_events=40_000, seed=3)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        first = _run_cli("run", "--spec", str(path), "--backend", "fleet")
        second = _run_cli("run", "--spec", str(path), "--backend", "fleet")
        assert _simulated_lines(first) == _simulated_lines(second)
        # A single run's table holds no wall-clock number either.
        assert len(first.splitlines()) - len(_simulated_lines(first)) == 1

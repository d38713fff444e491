"""Shared fixtures for the benchmark harnesses.

Each benchmark regenerates one of the paper's figures/tables, prints the
reproduced series to the terminal and also writes it to a results
directory.  That directory is the committed ``benchmarks/results/`` only
when a path under ``benchmarks/`` is named on the pytest command line
(``pytest benchmarks/test_bench_figure9.py``); a plain ``pytest`` run of the
whole suite still runs every bench and its assertions, but writes to a
temporary directory, so verification never rewrites the committed records.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"


def _benchmarks_named(config: pytest.Config) -> bool:
    """True when a path under ``benchmarks/`` is named on the command line."""
    for arg in config.args:
        path = (config.invocation_params.dir / arg.split("::")[0]).resolve()
        if path == BENCH_DIR or BENCH_DIR in path.parents:
            return True
    return False


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> Path:
    if not _benchmarks_named(request.config):
        return tmp_path_factory.mktemp("bench-results")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir, capsys):
    """Return a callable that both prints a table and persists it to a file."""

    def _report(name: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _report


@pytest.fixture
def report_json(results_dir):
    """Persist a machine-readable benchmark record as ``BENCH_<name>.json``.

    Every record carries the git SHA and a timestamp next to the measured
    numbers, so the performance trajectory is trackable across PRs (the CI
    ``bench-smoke`` job uploads these files as artifacts).
    """
    from repro.ensemble.results import git_describe

    def _report(name: str, payload: dict) -> Path:
        record = {
            "benchmark": name,
            "git": git_describe(),
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        record.update(payload)
        path = results_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path

    return _report


def env_int(name: str, default: int) -> int:
    """Read an integer tuning knob from the environment (e.g. REPRO_BENCH_EVENTS)."""
    value = os.environ.get(name)
    return int(value) if value else default


def smoke_mode() -> bool:
    """True in the CI ``bench-smoke`` job: keep the tables and JSON output,
    but relax the absolute speedup assertions that only hold on quiet,
    full-size hardware (smoke still fails if ``uniformized`` is slower than
    ``python``)."""
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))

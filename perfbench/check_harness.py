"""Tests of the benchmark harness itself; run by name, not part of tier-1::

    python3 -m pytest -q perfbench/check_harness.py

The smoke tests run all five workloads at ``--scale 0.02`` (about a
minute on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    ANALYTIC_SERVERS,
    ANALYTIC_UTILIZATIONS,
    POOL_POLICY,
    SMALL_TASKS_GRID,
    WORKLOADS,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ #
# Percentiles
# ------------------------------------------------------------------ #
def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert summary.percentile(values, 0) == 1.0
    assert summary.percentile(values, 100) == 4.0
    assert summary.percentile(values, 50) == 2.5
    assert summary.percentile(values, 90) == pytest.approx(3.7)


def test_describe_reports_spread_as_iqr_over_median():
    stats = summary.describe([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (stats["n"], stats["median"], stats["q1"], stats["q3"]) == (5, 3.0, 2.0, 4.0)
    assert stats["spread"] == pytest.approx(2.0 / 3.0)
    assert summary.describe([0.0, 0.0])["spread"] == 0.0


# ------------------------------------------------------------------ #
# Run values from pass records
# ------------------------------------------------------------------ #
SESSIONS = [{"setup_s": 1.0, "peak_rss_mb": 90.0}, {"setup_s": 3.0, "peak_rss_mb": 110.0},
            {"setup_s": 2.0, "peak_rss_mb": 100.0}]


def test_serial_pass_is_rebuilt_from_each_piece_at_its_best():
    passes = [
        {"wall_s": 0.050, "work": 10, "units_ms": {"a": 10.0, "b": 30.0},
         "parts_ms": {"a": 10.0, "b": 30.0, "x": 5.0}},
        {"wall_s": 0.046, "work": 10, "units_ms": {"a": 20.0, "b": 20.0},
         "parts_ms": {"a": 20.0, "b": 20.0, "x": 4.0}},
    ]
    values = run.run_values(passes, SESSIONS)
    # best pieces 10 + 20 + 4 ms, best time outside them min(5, 2) ms
    assert values["wall_s"] == pytest.approx(0.036)
    assert values["work_per_s"] == pytest.approx(10 / 0.036)
    assert values["unit_p50_ms"] == pytest.approx(15.0)
    assert (values["setup_s"], values["peak_rss_mb"]) == (2.0, 100.0)


def test_concurrent_pass_counts_as_a_whole():
    passes = [
        {"wall_s": 0.030, "work": 4, "units_ms": {"a": 20.0, "b": 25.0}},
        {"wall_s": 0.025, "work": 4, "units_ms": {"a": 22.0, "b": 21.0}},
    ]
    values = run.run_values(passes, SESSIONS)
    assert values["wall_s"] == 0.025
    assert values["unit_p50_ms"] == pytest.approx(20.5)


# ------------------------------------------------------------------ #
# Self-time arithmetic
# ------------------------------------------------------------------ #
def test_self_time_is_duration_minus_direct_children():
    spans = [
        ("campaigns.run", "campaigns", 0.0, 10.0, -1, None),
        ("campaigns.execute_task", "campaigns", 1.0, 5.0, 0, "t0"),
        ("kernels.advance", "kernels", 2.0, 4.0, 1, "t0"),
        ("utils.spawn_seeds", "utils", 6.0, 7.0, 0, None),
    ]
    result = tracing.aggregate(spans)
    names, layers = result["names"], result["layers"]
    assert names["campaigns.run"]["self"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert names["campaigns.execute_task"]["self"] == pytest.approx(4.0 - 2.0)
    assert names["kernels.advance"]["self"] == pytest.approx(2.0)
    assert layers["campaigns"] == pytest.approx(7.0)
    assert sum(layers.values()) == pytest.approx(10.0)  # self times tile the root span
    assert set(layers) == set(tracing.LAYERS)


def test_spans_outside_the_timed_window_do_not_count():
    spans = [
        ("campaigns.run", "campaigns", 0.0, 10.0, -1, None),
        ("campaigns.fold", "campaigns", 11.0, 12.0, -1, None),
    ]
    result = tracing.aggregate(spans, (0.0, 10.0))
    assert "campaigns.fold" not in result["names"]
    assert result["layers"]["campaigns"] == pytest.approx(10.0)


def test_tracer_records_nesting_and_units(monkeypatch):
    import types

    module = types.ModuleType("fake_layer")
    module.outer = lambda: module.inner() + 1
    module.inner = lambda: 41
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    probes = (
        tracing.Probe("api", "outer", "fake_layer", "outer", unit=lambda tracer, a, k: "u1"),
        tracing.Probe("core", "inner", "fake_layer", "inner"),
    )
    tracer = tracing.Tracer()
    tracing.install(tracer, probes)
    assert module.outer() == 42
    outer, (inner_name, _, _, _, inner_parent, inner_unit) = tracer.spans
    assert (inner_name, inner_parent, inner_unit) == ("inner", 0, "u1")
    assert outer[0] == "outer" and outer[4] == -1


def test_every_probe_target_exists():
    sys.path.insert(0, str(HERE.parent / "src"))
    for probe in tracing.PROBES:
        assert callable(getattr(tracing._resolve(probe.owner), probe.attribute)), probe


# ------------------------------------------------------------------ #
# Compare verdicts
# ------------------------------------------------------------------ #
STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


def test_verdicts():
    faster = [value * 0.8 for value in STEADY]
    slower = [value * 1.2 for value in STEADY]
    noisy = [0.5, 1.5, 0.8, 1.2, 1.0, 0.6]
    assert compare.verdict(STEADY, STEADY, 0.05, "lower") == "unchanged"
    assert compare.verdict(STEADY, faster, 0.05, "lower") == "improved"
    assert compare.verdict(STEADY, slower, 0.05, "lower") == "regressed"
    assert compare.verdict(STEADY, faster, 0.05, "higher") == "regressed"
    assert compare.verdict(STEADY, noisy, 0.05, "lower") == "unresolved"
    assert compare.verdict(STEADY[:2], faster[:2], 0.05, "lower") == "unresolved"


def _result(path: Path, wall: float, failed: int = 0) -> None:
    record = {
        "workload": "fleet_long", "trace": 0, "failed": failed,
        "fingerprint": {"cores": 2}, "metrics": {"wall_s": wall},
    }
    path.write_text(json.dumps(record))


def test_compare_command_exits_nonzero_on_regression(tmp_path):
    _result(tmp_path / "old.json", 1.0)
    _result(tmp_path / "same.json", 1.01)
    _result(tmp_path / "slow.json", 1.5)
    _result(tmp_path / "broken.json", 1.0, failed=1)
    assert compare.main([str(tmp_path / "old.json"), str(tmp_path / "same.json")]) == 0
    assert compare.main([str(tmp_path / "old.json"), str(tmp_path / "slow.json")]) == 1
    assert compare.main([str(tmp_path / "old.json"), str(tmp_path / "broken.json")]) == 1


def test_compare_needs_several_runs_to_claim_a_gain(tmp_path):
    _result(tmp_path / "old.json", 1.0)
    _result(tmp_path / "fast.json", 0.5)
    rows, _ = compare.compare(tmp_path / "old.json", tmp_path / "fast.json", BENCHMARK)
    assert rows[0][-1] == "unresolved"
    for side, scale in (("before", 1.0), ("after", 0.5)):
        (tmp_path / side).mkdir()
        for index, value in enumerate(STEADY):
            _result(tmp_path / side / f"run{index}.json", value * scale)
    rows, regressed = compare.compare(tmp_path / "before", tmp_path / "after", BENCHMARK)
    assert rows[0][-1] == "improved" and not regressed


# ------------------------------------------------------------------ #
# Smoke runs of every workload
# ------------------------------------------------------------------ #
def _run(tmp_path: Path, trace: int, cwd: Path = HERE.parent):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "0.02", "--seconds", "1",
         "--seed", "7", "--trace", str(trace), "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return completed, json.loads(completed.stdout.strip().splitlines()[-1])


def test_smoke_end_to_end(tmp_path):
    completed, final = _run(tmp_path, 0)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in BENCHMARK["end_to_end"]}
    assert set(final["metrics"]) == expected
    for name, metric in final["metrics"].items():
        assert metric["value"] > 0, name
    for workload in WORKLOADS:
        result = json.loads((tmp_path / f"{workload}-seed7-trace0.json").read_text())
        assert result["deterministic"] and result["fingerprint"]["cores"] >= 1
        assert {"numpy", "scipy", "python", "git", "cpu"} <= set(result["fingerprint"])
        assert result["solver_cache_at_start"] == ["cold"]


def test_smoke_trace_span_counts(tmp_path):
    completed, final = _run(tmp_path, 1)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in BENCHMARK["per_layer"]}
    assert set(final["metrics"]) == expected

    def result(workload):
        return json.loads((tmp_path / f"{workload}-seed7-trace1.json").read_text())

    small = result("campaign_small_tasks")
    tasks = 4 * SMALL_TASKS_GRID["replications"]
    assert small["span_counts"]["campaigns.execute_task"] == tasks
    assert small["metrics"]["campaigns.tasks_executed"] == tasks
    assert small["metrics"]["trace.coverage_ratio"] >= 0.9
    analytic = result("analytic_bounds")
    solves = 2 * len(ANALYTIC_SERVERS) * len(ANALYTIC_UTILIZATIONS)
    assert analytic["metrics"]["core.cache_misses"] == solves
    assert analytic["metrics"]["core.cache_hits"] == solves
    pool_tasks = 6 * POOL_POLICY["max_replications"]
    assert result("campaign_adaptive_pool")["metrics"]["campaigns.tasks_executed"] == pool_tasks
    assert (tmp_path / "cluster_bursty-seed7-spans.jsonl").stat().st_size > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""

"""Chaos matrix: campaigns under injected faults stay bitwise-correct.

Each test arms a deterministic :class:`~repro.faults.FaultPlan`, drives a
small campaign through the fault (absorbing retries, crash-resume loops,
watchdog kills, quarantine), and asserts the load-bearing guarantee of the
resilience layer: the surviving results are **bitwise identical** to a
fault-free twin of the same grid — no record lost, none double-folded.

Also covers the graceful-degradation acceptance paths: backend fallback in
:func:`repro.run` / :func:`repro.campaigns.worker.execute_task`, quarantine
surfacing in ``campaign status --json``, and clean SIGTERM shutdown of the
CLI campaign runner.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import ExperimentSpec, run
from repro.api.backends import get_backend
from repro.campaigns import (
    campaign_fingerprint,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.worker import execute_task
from repro.core import UnstableBoundModelError
from repro.ensemble.grid import GridConfig, PointTask
from repro.faults import FaultPlan, FaultSpec, InjectedCrash, clear, install

SRC = str(Path(__file__).resolve().parent.parent / "src")

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="chaos matrix relies on POSIX fork/signals"
)


def small_grid(**overrides):
    base = dict(
        server_counts=(20,),
        choices=(2,),
        utilizations=(0.8, 0.95),
        num_events=2000,
        replications=3,
        seed=7,
        workers=1,
    )
    base.update(overrides)
    return GridConfig(**base)


def single_point_grid(**overrides):
    return small_grid(utilizations=(0.8,), **overrides)


@pytest.fixture(autouse=True)
def _disarm_faults():
    clear()
    yield
    clear()


@pytest.fixture(scope="module")
def clean_pair(tmp_path_factory):
    """Fault-free twins of both chaos grids, run once per module."""
    root = tmp_path_factory.mktemp("clean")
    clear()
    run_campaign(grid=small_grid(), directory=root / "two_points")
    run_campaign(grid=single_point_grid(), directory=root / "one_point")
    return {
        "two_points": campaign_fingerprint(root / "two_points"),
        "one_point": campaign_fingerprint(root / "one_point"),
    }


def run_through_crashes(directory, grid, **kwargs):
    """Drive a campaign to completion across injected crash/resume cycles."""
    crashes = 0
    try:
        result = run_campaign(grid=grid, directory=directory, **kwargs)
    except InjectedCrash:
        crashes += 1
        result = None
    while result is None or not result.complete:
        assert crashes < 12, "crash/resume loop failed to make progress"
        try:
            result = resume_campaign(directory)
        except InjectedCrash:
            crashes += 1
            result = None
    return result, crashes


def journal_events(directory, kind):
    lines = (directory / "journal.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if f'"{kind}"' in line]


# --------------------------------------------------------------------- #
# I/O errors: absorbed by seeded-backoff retries, no resume needed
# --------------------------------------------------------------------- #
class TestTransientIOErrors:
    def test_journal_append_errors_are_absorbed(self, tmp_path, clean_pair):
        plan = install(FaultPlan(faults=[
            FaultSpec(site="journal.append", kind="io_error", times=2)
        ]))
        result = run_campaign(grid=small_grid(), directory=tmp_path / "camp")
        assert result.complete and result.status == "complete"
        assert plan.fire_counts().get("journal.append", 0) > 0
        assert campaign_fingerprint(tmp_path / "camp") == clean_pair["two_points"]

    def test_record_append_errors_are_absorbed(self, tmp_path, clean_pair):
        plan = install(FaultPlan(faults=[
            FaultSpec(site="records.append", kind="io_error", times=2)
        ]))
        result = run_campaign(grid=small_grid(), directory=tmp_path / "camp")
        assert result.complete
        assert plan.fire_counts().get("records.append", 0) > 0
        assert campaign_fingerprint(tmp_path / "camp") == clean_pair["two_points"]


# --------------------------------------------------------------------- #
# Torn writes: crash at the durability boundary, repair + resume
# --------------------------------------------------------------------- #
class TestTornWrites:
    def test_torn_journal_line_repairs_on_resume(self, tmp_path, clean_pair):
        plan = install(FaultPlan(faults=[
            FaultSpec(site="journal.append", kind="torn_write", match=":1")
        ]))
        result, crashes = run_through_crashes(tmp_path / "camp", small_grid())
        assert crashes >= 1  # the fault genuinely struck
        assert result.complete
        assert plan.fire_counts().get("journal.append", 0) == crashes
        assert campaign_fingerprint(tmp_path / "camp") == clean_pair["two_points"]

    def test_torn_record_line_reruns_the_task(self, tmp_path, clean_pair):
        plan = install(FaultPlan(faults=[
            FaultSpec(site="records.append", kind="torn_write", match=":1")
        ]))
        result, crashes = run_through_crashes(tmp_path / "camp", small_grid())
        assert crashes >= 1
        assert result.complete
        assert plan.fire_counts().get("records.append", 0) == crashes
        # The re-run reproduced the lost record exactly: same seed, same fold.
        assert campaign_fingerprint(tmp_path / "camp") == clean_pair["two_points"]


# --------------------------------------------------------------------- #
# Worker deaths: crash injection, hung-task watchdog
# --------------------------------------------------------------------- #
class TestWorkerDeaths:
    def test_first_attempt_crashes_are_retried_identically(self, tmp_path, clean_pair):
        # Every task's FIRST dispatch kills its worker (fork inherits the
        # plan); the re-leased second attempts run clean.
        install(FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="crash", match="#0", times=None)
        ]))
        result = run_campaign(
            grid=single_point_grid(workers=2), directory=tmp_path / "camp"
        )
        assert result.complete and result.status == "complete"
        assert not result.quarantined
        assert journal_events(tmp_path / "camp", "release")  # reaper re-leased
        assert campaign_fingerprint(tmp_path / "camp") == clean_pair["one_point"]

    def test_hung_task_is_reaped_by_watchdog(self, tmp_path, clean_pair):
        # Replication 0's first attempt hangs far past the wall-clock budget;
        # the watchdog must kill the worker and re-lease, well under the
        # injected 30 s sleep.
        install(FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="hang", match=":0#0", seconds=30.0)
        ]))
        started = time.monotonic()
        result = run_campaign(
            grid=single_point_grid(workers=2),
            directory=tmp_path / "camp",
            task_timeout_seconds=1.5,
        )
        assert time.monotonic() - started < 25.0
        assert result.complete and not result.quarantined
        assert journal_events(tmp_path / "camp", "release")
        assert campaign_fingerprint(tmp_path / "camp") == clean_pair["one_point"]

    def test_dropped_heartbeats_never_change_results(self, tmp_path, clean_pair):
        plan = install(FaultPlan(faults=[
            FaultSpec(site="scheduler.heartbeat", kind="drop", times=None)
        ]))
        result = run_campaign(
            grid=small_grid(workers=2), directory=tmp_path / "camp"
        )
        assert result.complete
        assert plan.fire_counts().get("scheduler.heartbeat", 0) > 0
        assert campaign_fingerprint(tmp_path / "camp") == clean_pair["two_points"]

    def test_inline_campaign_fires_the_worker_hooks(self, tmp_path, clean_pair):
        # An inline campaign runs tasks through the same execute_task as
        # pool workers, so the same worker-site plans reach it.
        plan = install(FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="hang", times=None),
            FaultSpec(site="worker.done", kind="hang", times=None),
        ]))
        result = run_campaign(grid=small_grid(), directory=tmp_path / "camp")
        assert result.complete
        assert plan.fire_counts() == {"worker.task": 6, "worker.done": 6}
        assert campaign_fingerprint(tmp_path / "camp") == clean_pair["two_points"]


# --------------------------------------------------------------------- #
# Poison tasks: quarantine and degraded completion
# --------------------------------------------------------------------- #
class TestQuarantine:
    def test_poison_task_degrades_instead_of_crash_looping(self, tmp_path):
        # Replication 1 kills every worker that touches it, forever.  After
        # quarantine_after deaths the campaign must route around it and
        # complete degraded instead of tripping the crash-loop cap.
        install(FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="crash", match=":1#", times=None)
        ]))
        directory = tmp_path / "camp"
        result = run_campaign(
            grid=single_point_grid(workers=2),
            directory=directory,
            quarantine_after=2,
        )
        assert result.complete and result.status == "degraded"
        assert len(result.quarantined) == 1
        assert result.quarantined[0].endswith(":1")
        assert "DEGRADED" in result.as_table()

        # The quarantine report is durable and explains itself.
        details = [
            json.loads(line)
            for line in (directory / "quarantined.jsonl").read_text().splitlines()
        ]
        assert len(details) == 1
        assert details[0]["task"] == result.quarantined[0]
        assert details[0]["deaths"] == 2
        assert "killed its worker" in details[0]["reason"]

        # Status inspection agrees, without re-running anything.
        status = campaign_status(directory)
        assert status.complete and status.status == "degraded"
        assert status.counts["quarantined"] == 1
        assert status.quarantined == result.quarantined

        # So does the fingerprint: its fold skips the quarantined hole.
        point = result.points[0]
        summary = campaign_fingerprint(directory)["points"][point.digest]
        assert summary["replications"] == point.replications
        assert summary["metrics"]["mean_delay"]["mean"] == point.metrics["mean_delay"]["mean"]

        # Resuming a degraded campaign is a no-op that stays degraded —
        # quarantine is a durable verdict, not a transient state.
        clear()
        resumed = resume_campaign(directory)
        assert resumed.complete and resumed.executed_tasks == 0
        assert resumed.status == "degraded"
        assert resumed.quarantined == result.quarantined


# --------------------------------------------------------------------- #
# Backend degradation: typed runtime failures fall back, never SpecError
# --------------------------------------------------------------------- #
class TestBackendFallback:
    @pytest.fixture()
    def unstable_qbd(self, monkeypatch):
        backend = get_backend("qbd_bounds")

        def unstable(spec, seed=None):
            raise UnstableBoundModelError("injected: bound model unstable")

        monkeypatch.setattr(backend, "run_once", unstable)
        return backend

    def _spec(self):
        return ExperimentSpec.create(
            num_servers=20, d=2, utilization=0.8, num_events=2000
        )

    def test_run_degrades_to_next_capable_backend(self, unstable_qbd):
        result = run(self._spec(), backend="qbd_bounds", seed=11)
        assert result.backend != "qbd_bounds"
        degraded = result.provenance["degraded"]
        assert degraded[0]["backend"] == "qbd_bounds"
        assert "UnstableBoundModelError" in degraded[0]["error"]
        assert result.extras.get("degraded_from") == "qbd_bounds"
        assert result.mean_delay > 0

    def test_fallback_false_raises_the_original_error(self, unstable_qbd):
        with pytest.raises(UnstableBoundModelError):
            run(self._spec(), backend="qbd_bounds", fallback=False)

    def test_spec_errors_never_trigger_fallback(self, monkeypatch):
        # A SpecError means the *request* is wrong — silently answering a
        # different question with another backend would be worse than
        # failing, so the fallback chain must never catch it.
        from repro.api import SpecError

        backend = get_backend("qbd_bounds")

        def rejected(spec, seed=None):
            raise SpecError("injected: spec rejected")

        monkeypatch.setattr(backend, "run_once", rejected)
        with pytest.raises(SpecError):
            run(self._spec(), backend="qbd_bounds")

    def test_campaign_worker_records_degradation_trail(self, unstable_qbd):
        spec = self._spec()
        task = PointTask(
            task_id="deadbeef:0",
            digest="deadbeef",
            backend="qbd_bounds",
            spec=spec,
            seed=123,
            replication=0,
            labels={},
        )
        record = execute_task(task)
        assert record["degraded_from"] == "qbd_bounds"
        assert record["backend"] != "qbd_bounds"
        assert record["replication"] == 0 and record["seed"] == 123


# --------------------------------------------------------------------- #
# Graceful SIGTERM: the CLI campaign stops cleanly and resumes exactly
# --------------------------------------------------------------------- #
class TestGracefulShutdown:
    def test_sigterm_leaves_a_cleanly_resumable_campaign(self, tmp_path, clean_pair):
        victim = tmp_path / "victim"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        # A 0.3 s hang before every task widens the window between the
        # first durable record and campaign completion so the SIGTERM
        # reliably lands mid-sweep.
        env["REPRO_FAULT_PLAN"] = FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="hang", seconds=0.3, times=None)
        ]).to_json()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                "--dir", str(victim),
                "--servers", "20", "--utilizations", "0.8", "0.95",
                "--events", "2000", "--replications", "3", "--seed", "7",
                "--workers", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        records = victim / "records.jsonl"
        deadline = time.time() + 60.0
        while time.time() < deadline:
            if records.exists() and records.read_text(encoding="utf-8").count("\n") >= 1:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - diagnostic path
            process.kill()
            pytest.fail("campaign produced no records within 60s")
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60.0)
        assert process.returncode == 0, output  # graceful, not a crash
        assert "interrupted after" in output
        assert "resume" in output

        status = campaign_status(victim)
        assert not status.complete and status.status == "resumable"

        resumed = resume_campaign(victim)
        assert resumed.complete
        assert campaign_fingerprint(victim) == clean_pair["two_points"]

    def test_env_armed_chaos_reaches_the_cli(self, tmp_path, clean_pair):
        """The CI chaos-smoke path: REPRO_FAULT_PLAN + plain CLI run."""
        directory = tmp_path / "camp"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["REPRO_FAULT_PLAN"] = FaultPlan(faults=[
            FaultSpec(site="journal.append", kind="io_error", times=2),
            FaultSpec(site="records.append", kind="io_error", times=1),
        ]).to_json()
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                "--dir", str(directory),
                "--servers", "20", "--utilizations", "0.8", "0.95",
                "--events", "2000", "--replications", "3", "--seed", "7",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert campaign_fingerprint(directory) == clean_pair["two_points"]

"""Chaos matrix: campaigns under injected faults stay bitwise-correct.

Each test arms a deterministic :class:`~repro.faults.FaultPlan`, drives a
small campaign through the fault (absorbing retries, crash-resume loops,
watchdog kills, quarantine), and asserts the load-bearing guarantee of the
resilience layer: the surviving results are **bitwise identical** to a
fault-free twin of the same grid — no record lost, none double-folded.

Also covers the graceful-degradation acceptance paths: backend fallback in
:func:`repro.run` / :func:`repro.campaigns.worker.execute_task`, quarantine
surfacing in ``campaign status --json``, clean SIGTERM shutdown of the
CLI campaign runner, and the same worker machinery under replicated runs
(``repro.run(replications=K)``, ``run_ensemble``), which execute as
in-memory campaign sessions.
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
from repro.api.spec import SpecError
from repro.campaigns import (
    CampaignError,
    campaign_fingerprint,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.worker import execute_task
from repro.core import UnstableBoundModelError
from repro.ensemble.grid import GridConfig, PointTask
from repro.ensemble.runner import run_ensemble
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


    def test_raising_task_is_reported_not_a_worker_death(self, tmp_path, clean_pair, monkeypatch):
        # A task that raises in a pool worker must surface its exception
        # (not kill the worker three times into a degraded campaign), and
        # stay leased so a resume re-runs it once the cause is gone.
        backend = get_backend("fleet")
        original = backend.run_once

        def broken(spec, seed=None):
            if spec.system.utilization == 0.95:
                raise ValueError("injected: backend bug")
            return original(spec, seed)

        monkeypatch.setattr(backend, "run_once", broken)
        directory = tmp_path / "camp"
        with pytest.raises(ValueError, match="injected: backend bug"):
            run_campaign(grid=small_grid(workers=2), directory=directory)
        assert not campaign_status(directory).complete
        assert not (directory / "quarantined.jsonl").exists()

        monkeypatch.undo()
        resumed = resume_campaign(directory)
        assert resumed.complete and resumed.status == "complete"
        assert campaign_fingerprint(directory) == clean_pair["two_points"]


# --------------------------------------------------------------------- #
# Replicated runs: in-memory sessions get the same worker machinery
# --------------------------------------------------------------------- #
FLEET_SPEC = ExperimentSpec.create(num_servers=20, d=2, utilization=0.8, num_events=2000)

#: Runs in a fresh interpreter: the first call of the fleet backend for
#: replication 1's seed kills its worker process, as an OOM kill would.
DIE_ONCE = """
import os, sys, time
from pathlib import Path
from repro import ExperimentSpec
from repro.api.backends import get_backend
from repro.ensemble.runner import run_ensemble
from repro.utils.seeding import spawn_seeds

spec = ExperimentSpec.create(num_servers=20, d=2, utilization=0.8, num_events=2000)
clean = run_ensemble(spec=spec, backend="fleet", replications=4, seed=5)
marker = Path(sys.argv[1])
victim = spawn_seeds(5, 4)[1]
backend = get_backend("fleet")
original = backend.run_once

def dies_once(spec, seed=None):
    if seed == victim and not marker.exists():
        marker.touch()
        time.sleep(0.1)  # let the claim message leave before dying
        os._exit(1)
    return original(spec, seed)

backend.run_once = dies_once
result = run_ensemble(spec=spec, backend="fleet", replications=4, workers=2, seed=5)
assert marker.exists(), "the worker never died"
assert result.simulation_records() == clean.simulation_records()
print("retried identically")
"""


class TestReplicatedRuns:
    def test_inline_run_ensemble_fires_the_worker_hooks(self):
        clean = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=3, seed=5)
        plan = install(FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="hang", times=None),
            FaultSpec(site="worker.done", kind="hang", times=None),
        ]))
        hooked = run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=3, seed=5)
        assert plan.fire_counts() == {"worker.task": 3, "worker.done": 3}
        assert hooked.simulation_records() == clean.simulation_records()

    def test_worker_death_is_retried_with_identical_records(self, tmp_path):
        # In a subprocess with a timeout: an executor that never notices
        # the death blocks forever, which must fail this test, not hang it.
        completed = subprocess.run(
            [sys.executable, "-c", DIE_ONCE, str(tmp_path / "died")],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=60.0,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "retried identically" in completed.stdout

    def test_replication_that_always_kills_its_worker_raises(self):
        # Replication 1 of the (only) ensemble kills every worker that runs
        # it; in memory there is no degraded result to return.
        install(FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="crash", match="0:1#", times=None)
        ]))
        with pytest.raises(CampaignError, match=r"task 0:1 .*killed its worker 3 times"):
            run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=3, workers=2, seed=5)

    def test_task_exception_in_a_worker_reaches_the_caller(self):
        spec = ExperimentSpec.create(
            num_servers=20, d=2, utilization=0.8, num_events=2000, bogus=1
        )
        with pytest.raises(SpecError, match="bogus"):
            run(spec, backend="fleet", replications=2, workers=2)

    def test_keyboard_interrupt_is_not_swallowed_in_memory(self, monkeypatch):
        # A durable campaign turns Ctrl-C into a resumable stop; an in-memory
        # run has nothing to resume, so the interrupt must reach the caller.
        def interrupted(spec, seed=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(get_backend("fleet"), "run_once", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=2)

    def test_unpicklable_exception_arrives_with_its_traceback(self, monkeypatch):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def broken(spec, seed=None):
            raise LocalError("injected: unpicklable")

        monkeypatch.setattr(get_backend("fleet"), "run_once", broken)
        with pytest.raises(RuntimeError, match="does not pickle") as raised:
            run_ensemble(spec=FLEET_SPEC, backend="fleet", replications=2, workers=2)
        assert "LocalError: injected: unpicklable" in str(raised.value)


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
            backend="qbd_bounds",
            spec=spec,
            seed=123,
            replication=0,
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

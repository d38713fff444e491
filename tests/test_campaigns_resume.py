"""Campaign durability: interruption, SIGKILL, crash reclaim, resume identity.

The load-bearing guarantee of :mod:`repro.campaigns`: a campaign interrupted
at *any* instant — graceful ``max_tasks`` stop, SIGKILL of the scheduler
process, SIGKILL of a worker mid-task — resumes from its directory and
finishes with results **bitwise identical** to a never-interrupted run.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.spec import SpecError
from repro.campaigns import (
    CampaignError,
    campaign_fingerprint,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.manifest import CampaignManifest
from repro.ensemble.grid import GridConfig, point_digest, task_id_for
from repro.faults import FaultPlan, FaultSpec, clear, install

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


class TestResumeIdentity:
    def test_interrupted_resume_is_bitwise_identical(self, tmp_path):
        clean = run_campaign(grid=small_grid(), directory=tmp_path / "clean")
        assert clean.complete and clean.executed_tasks == 6

        interrupted = run_campaign(
            grid=small_grid(), directory=tmp_path / "twin", max_tasks=2
        )
        assert not interrupted.complete and interrupted.executed_tasks == 2
        status = campaign_status(tmp_path / "twin")
        assert not status.complete and status.counts["done"] == 2

        resumed = resume_campaign(tmp_path / "twin")
        assert resumed.complete and resumed.executed_tasks == 4

        fp_clean = campaign_fingerprint(tmp_path / "clean")
        fp_twin = campaign_fingerprint(tmp_path / "twin")
        assert fp_clean == fp_twin  # records AND streamed estimates, bitwise

    def test_repeated_interruptions_still_identical(self, tmp_path):
        run_campaign(grid=small_grid(), directory=tmp_path / "clean")
        directory = tmp_path / "choppy"
        result = run_campaign(grid=small_grid(), directory=directory, max_tasks=1)
        hops = 0
        while not result.complete:
            result = resume_campaign(directory, max_tasks=1)
            hops += 1
            assert hops < 20, "resume loop failed to make progress"
        assert campaign_fingerprint(directory) == campaign_fingerprint(tmp_path / "clean")

    def test_resume_of_finished_campaign_is_noop(self, tmp_path):
        run_campaign(grid=small_grid(), directory=tmp_path / "done")
        again = resume_campaign(tmp_path / "done")
        assert again.complete and again.executed_tasks == 0

    def test_worker_count_does_not_change_results(self, tmp_path):
        run_campaign(grid=small_grid(replications=4), directory=tmp_path / "serial")
        run_campaign(
            grid=small_grid(replications=4, workers=3), directory=tmp_path / "pool"
        )
        assert campaign_fingerprint(tmp_path / "serial") == campaign_fingerprint(
            tmp_path / "pool"
        )

    def test_resume_against_different_grid_fails_loudly(self, tmp_path):
        run_campaign(grid=small_grid(), directory=tmp_path / "camp", max_tasks=1)
        with pytest.raises(CampaignError, match="differs"):
            run_campaign(grid=small_grid(seed=8), directory=tmp_path / "camp")

    def test_bounds_grid_is_rejected(self, tmp_path):
        # Campaign points carry no QBD bracket; a grid asking for one must
        # fail up front instead of silently dropping it.
        with pytest.raises(SpecError, match="run_grid"):
            run_campaign(grid=small_grid(bounds=True), directory=tmp_path / "bounds")
        assert not (tmp_path / "bounds").exists()

    def test_older_format_directory_resumes(self, tmp_path):
        """A directory whose journal stamps ``lease`` events with a
        ``deadline`` and whose manifest carries ``lease_seconds`` (the
        format before leases lost their clock) still loads and resumes."""
        run_campaign(grid=small_grid(), directory=tmp_path / "clean")
        directory = tmp_path / "older"
        run_campaign(grid=small_grid(), directory=directory, max_tasks=2)

        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["lease_seconds"] = 300.0
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        journal = directory / "journal.jsonl"
        events = [json.loads(line) for line in journal.read_text(encoding="utf-8").splitlines()]
        done = {event["task"] for event in events if event["event"] == "done"}
        for event in events:
            if event["event"] == "lease":
                event["deadline"] = 1_000_300.0
        # The lease a killed process held on its task in flight.
        in_flight = next(
            event["task"] for event in events
            if event["event"] == "enqueue" and event["task"] not in done
        )
        events.append(
            {"event": "lease", "task": in_flight, "worker": "inline", "deadline": 1_000_300.0}
        )
        journal.write_text(
            "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
        )

        status = campaign_status(directory)
        assert status.counts["done"] == 2 and status.counts["leased"] == 1
        resumed = resume_campaign(directory)
        assert resumed.complete and resumed.executed_tasks == 4
        assert campaign_fingerprint(directory) == campaign_fingerprint(tmp_path / "clean")


class TestSigkillResume:
    def test_sigkill_mid_sweep_then_resume_is_bitwise_identical(self, tmp_path):
        """Kill -9 the whole scheduler process mid-campaign; resume; compare.

        An inline campaign runs tasks in the scheduler's own process, so a
        ``crash`` at ``worker.done`` SIGKILLs the scheduler itself — after
        the third task of the first point is simulated, before its record is
        written.  The resume runs without the plan: attempt numbers and
        fault budgets restart in every process."""
        clean_dir = tmp_path / "clean"
        run_campaign(grid=small_grid(replications=4), directory=clean_dir)

        victim_dir = tmp_path / "victim"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["REPRO_FAULT_PLAN"] = FaultPlan(faults=[
            FaultSpec(site="worker.done", kind="crash", match=":2#0")
        ]).to_json()
        process = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                "--dir", str(victim_dir),
                "--servers", "20", "--utilizations", "0.8", "0.95",
                "--events", "2000", "--replications", "4", "--seed", "7",
                "--workers", "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL

        interrupted = campaign_status(victim_dir)
        assert not interrupted.complete  # it really was cut short

        resumed = resume_campaign(victim_dir)
        assert resumed.complete
        assert campaign_fingerprint(victim_dir) == campaign_fingerprint(clean_dir)

    def test_worker_crash_is_reclaimed_and_result_identical(self, tmp_path):
        """A worker SIGKILLs itself on the first attempt of one task — after
        simulating, before reporting (the worst-case window).  The scheduler
        must release the lease, respawn, finish, and still match the clean
        run."""
        clean_dir = tmp_path / "clean"
        run_campaign(grid=small_grid(replications=4), directory=clean_dir)

        grid = small_grid(replications=4, workers=2)
        victim = task_id_for(point_digest(grid.points()[0]["labels"]), 0)
        crash_dir = tmp_path / "crash"
        install(FaultPlan(faults=[
            FaultSpec(site="worker.done", kind="crash", match=f"{victim}#0")
        ]))
        try:
            result = run_campaign(grid=grid, directory=crash_dir)
        finally:
            clear()
        assert result.complete
        assert '"release"' in (crash_dir / "journal.jsonl").read_text(encoding="utf-8")
        assert campaign_fingerprint(crash_dir) == campaign_fingerprint(clean_dir)


class TestAdaptiveAllocation:
    def test_replications_go_where_intervals_are_widest(self, tmp_path):
        """The whole point of per-point adaptive allocation: the noisy
        high-utilization point must receive strictly more replications than
        the quiet low-utilization point, and both must converge."""
        grid = small_grid(
            utilizations=(0.5, 0.95), num_events=1500, replications=3, seed=11
        )
        result = run_campaign(
            grid=grid,
            directory=tmp_path / "adaptive",
            target_relative_half_width=0.10,
            max_replications=24,
            batch_size=3,
        )
        assert result.complete
        by_rho = {point.labels["utilization"]: point for point in result.points}
        quiet, noisy = by_rho[0.5], by_rho[0.95]
        assert quiet.converged and noisy.converged
        assert quiet.replications == grid.replications  # converged immediately
        assert noisy.replications > quiet.replications  # budget went to the noise
        # And the allocation is itself resumable: interrupt a twin mid-flight
        # and the adaptive decisions come out identical.
        twin_dir = tmp_path / "adaptive-twin"
        twin = run_campaign(
            grid=grid,
            directory=twin_dir,
            target_relative_half_width=0.10,
            max_replications=24,
            batch_size=3,
            max_tasks=4,
        )
        assert not twin.complete
        twin = resume_campaign(twin_dir)
        assert twin.complete
        assert campaign_fingerprint(twin_dir) == campaign_fingerprint(tmp_path / "adaptive")

    def test_cap_retires_unconverged_points(self, tmp_path):
        result = run_campaign(
            grid=small_grid(utilizations=(0.95,), num_events=1000, replications=2),
            directory=tmp_path / "capped",
            target_relative_half_width=1e-6,  # unreachable
            max_replications=4,
            batch_size=2,
        )
        assert result.complete  # the campaign finishes...
        point = result.points[0]
        assert point.replications == 4  # ...at the cap
        assert not point.converged  # ...and says so

    def test_campaign_memory_is_o_points_not_o_jobs(self, tmp_path):
        """Per-point scheduler state must not grow with the replication
        count: streaming moments instead of sample lists, an empty
        out-of-order buffer once folded, slots everywhere."""
        from repro.campaigns.accumulators import PointAccumulator, StreamingMoments

        result = run_campaign(
            grid=small_grid(utilizations=(0.8,), num_events=500, replications=32),
            directory=tmp_path / "wide",
        )
        assert result.complete and result.total_replications == 32
        accumulator = PointAccumulator()
        for index in range(10_000):
            accumulator.add(index, {"replication": index, "mean_delay": 2.0 + index * 1e-4})
        assert accumulator.count == 10_000
        assert accumulator.buffered == 0  # nothing retained per record
        assert not hasattr(accumulator, "__dict__")
        assert not hasattr(accumulator.statistics("mean_delay"), "__dict__")
        assert not hasattr(StreamingMoments(), "samples")


class TestCampaignCli:
    def test_status_and_resume_round_trip(self, tmp_path):
        directory = tmp_path / "cli"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        run = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                "--dir", str(directory),
                "--servers", "20", "--utilizations", "0.8",
                "--events", "1000", "--replications", "2", "--seed", "3",
                "--max-tasks", "1",
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "interrupted" in run.stdout and "campaign resume" in run.stdout

        snapshot_path = tmp_path / "status.json"
        status = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "status",
             "--dir", str(directory), "--json", str(snapshot_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert status.returncode == 0, status.stderr
        assert "resumable" in status.stdout
        snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        assert snapshot["complete"] is False
        assert snapshot["counts"]["done"] == 1

        resume = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "resume",
             "--dir", str(directory)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert resume.returncode == 0, resume.stderr
        assert "complete" in resume.stdout
        assert campaign_status(directory).complete

    def test_run_refuses_existing_directory(self, tmp_path):
        directory = tmp_path / "cli2"
        run_campaign(grid=small_grid(), directory=directory, max_tasks=1)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        rerun = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "run",
             "--dir", str(directory), "--servers", "20",
             "--utilizations", "0.8", "--events", "1000"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert rerun.returncode != 0
        assert "resume" in rerun.stderr

    def test_invalid_grid_leaves_no_campaign_behind(self, tmp_path):
        directory = tmp_path / "invalid"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "run",
             "--dir", str(directory), "--servers", "10", "--utilizations", "1.5",
             "--events", "200", "--replications", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert "utilization" in run.stderr
        assert not (directory / "manifest.json").exists()

    def test_manifest_records_provenance_and_policy(self, tmp_path):
        directory = tmp_path / "manifest"
        run_campaign(
            grid=small_grid(),
            directory=directory,
            target_relative_half_width=0.2,
            max_replications=8,
            max_tasks=1,
        )
        manifest = CampaignManifest.load(directory)
        assert manifest.target_relative_half_width == 0.2
        assert manifest.max_replications == 8
        assert manifest.grid["seed"] == 7
        assert "package_version" in manifest.provenance or manifest.provenance

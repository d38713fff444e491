"""Unit tests for the fault-injection framework and its supporting layers.

Covers the deterministic plan machinery (:mod:`repro.faults.plan`), the
hook plumbing (:mod:`repro.faults.hooks`), seeded-backoff retries
(:mod:`repro.utils.retry`), the shared atomic-write helper
(:mod:`repro.api.serialize`), poison-task quarantine at the queue level,
and the ordered accumulator's hole-skipping.  End-to-end chaos matrices
live in ``test_faults_chaos.py``.
"""

import json
import os

import pytest

from repro import faults
from repro.campaigns.accumulators import PointAccumulator
from repro.campaigns.queue import QueueError, TaskQueue
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedIOError,
    clear,
    install,
    maybe_fire,
)
from repro.utils.retry import RetryExhaustedError, RetryPolicy, retry_call


@pytest.fixture(autouse=True)
def _disarm_faults():
    """Every test leaves the process with fault injection disarmed."""
    yield
    clear()


# --------------------------------------------------------------------- #
# FaultSpec / FaultPlan
# --------------------------------------------------------------------- #
class TestFaultSpec:
    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError, match="site"):
            FaultSpec(site="nope.nope", kind="crash")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="journal.append", kind="explode")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="worker.task", kind="stall")
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(site="journal.append", kind="io_error", probability=1.5)
        with pytest.raises(ValueError, match="times"):
            FaultSpec(site="journal.append", kind="io_error", times=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec(site="worker.task", kind="hang", seconds=-1.0)

    def test_dict_round_trip(self):
        spec = FaultSpec(
            site="worker.task", kind="hang", probability=0.25,
            match="#0", times=None, seconds=2.5,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            faults=[
                FaultSpec(site="journal.append", kind="io_error", times=2),
                FaultSpec(site="worker.task", kind="crash", match="#0"),
            ],
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed and clone.faults == plan.faults
        # And the JSON is env-var friendly: one line, no spaces.
        assert "\n" not in plan.to_json()

    def test_firing_decisions_are_deterministic(self):
        def decisions():
            plan = FaultPlan(
                seed=7,
                faults=[FaultSpec(site="records.append", kind="io_error",
                                  probability=0.5, times=None)],
            )
            return [
                plan.select("records.append", f"p:{i % 3}") is not None
                for i in range(60)
            ]

        first, second = decisions(), decisions()
        assert first == second  # pure function of (seed, site, key, occurrence)
        assert any(first) and not all(first)  # the coin actually flips

    def test_match_filters_on_key_substring(self):
        plan = FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="crash", match="#0", times=None)
        ])
        assert plan.select("worker.task", "abc:1#0") is not None
        assert plan.select("worker.task", "abc:1#1") is None
        assert plan.select("journal.append", "abc:1#0") is None  # wrong site

    def test_times_budget_is_per_key(self):
        plan = FaultPlan(faults=[
            FaultSpec(site="journal.append", kind="io_error", times=2)
        ])
        assert plan.select("journal.append", "a") is not None
        assert plan.select("journal.append", "a") is not None
        assert plan.select("journal.append", "a") is None  # budget spent for "a"
        assert plan.select("journal.append", "b") is not None  # fresh key

    def test_first_matching_spec_wins(self):
        crash = FaultSpec(site="worker.task", kind="crash", times=None)
        hang = FaultSpec(site="worker.task", kind="hang", times=None, seconds=1.0)
        plan = FaultPlan(faults=[crash, hang])
        assert plan.select("worker.task", "t") is crash

    def test_fire_counts_totals_by_site(self):
        plan = FaultPlan(faults=[
            FaultSpec(site="journal.append", kind="io_error", times=None)
        ])
        for key in ("a", "b", "a"):
            plan.select("journal.append", key)
        assert plan.fire_counts() == {"journal.append": 3}


# --------------------------------------------------------------------- #
# Hook plumbing
# --------------------------------------------------------------------- #
class TestHooks:
    def test_disabled_hook_is_a_noop(self):
        clear()
        assert maybe_fire("journal.append", key="anything") is False

    def test_io_error_is_a_retryable_oserror(self):
        install(FaultPlan(faults=[
            FaultSpec(site="journal.append", kind="io_error")
        ]))
        with pytest.raises(InjectedIOError) as excinfo:
            maybe_fire("journal.append", key="t")
        assert isinstance(excinfo.value, OSError)
        # times=1 budget spent: the next occurrence passes clean.
        assert maybe_fire("journal.append", key="t") is False

    def test_drop_returns_true_and_acts_nowhere_else(self):
        install(FaultPlan(faults=[
            FaultSpec(site="scheduler.heartbeat", kind="drop")
        ]))
        assert maybe_fire("scheduler.heartbeat", key="w0") is True
        assert maybe_fire("scheduler.heartbeat", key="w0") is False

    def test_torn_write_flushes_half_a_line_then_dies(self, tmp_path):
        install(FaultPlan(faults=[
            FaultSpec(site="records.append", kind="torn_write")
        ]))
        target = tmp_path / "records.jsonl"
        line = json.dumps({"replication": 0, "mean_delay": 2.0}) + "\n"
        with target.open("a", encoding="utf-8") as handle:
            with pytest.raises(InjectedCrash):
                maybe_fire("records.append", key="p:0", handle=handle, line=line)
        tail = target.read_text(encoding="utf-8")
        assert 0 < len(tail) < len(line)  # a genuine torn artifact
        assert tail == line[: len(tail)]

    def test_env_transport_round_trip(self, monkeypatch):
        plan = FaultPlan(seed=3, faults=[
            FaultSpec(site="manifest.write", kind="io_error")
        ])
        monkeypatch.setenv(faults.hooks.ENV_PLAN, plan.to_json())
        loaded = faults.installed_from_env()
        assert loaded is not None and loaded.seed == 3
        with pytest.raises(InjectedIOError):
            maybe_fire("manifest.write", key="digest")

    def test_explicit_install_outranks_environment(self, monkeypatch):
        monkeypatch.setenv(
            faults.hooks.ENV_PLAN,
            FaultPlan(faults=[FaultSpec(site="journal.append", kind="io_error")]).to_json(),
        )
        install(FaultPlan())  # an empty explicit plan: nothing fires
        assert maybe_fire("journal.append", key="t") is False

    def test_unparsable_env_plan_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(faults.hooks.ENV_PLAN, "{not json")
        with pytest.raises(faults.FaultError, match="unparsable"):
            faults.installed_from_env()


# --------------------------------------------------------------------- #
# Seeded-backoff retries
# --------------------------------------------------------------------- #
class TestRetry:
    def test_first_try_success_never_sleeps(self):
        sleeps = []
        assert retry_call(lambda: 42, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_transient_failures_are_absorbed(self):
        policy = RetryPolicy(attempts=4, seed=9)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise InjectedIOError("disk hiccup")
            return "ok"

        sleeps = []
        assert retry_call(flaky, policy=policy, sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert tuple(sleeps) == policy.delays()[:2]  # the seeded schedule

    def test_exhaustion_raises_with_cause(self):
        policy = RetryPolicy(attempts=3)

        def doomed():
            raise InjectedIOError("never recovers")

        with pytest.raises(RetryExhaustedError, match="journal append") as excinfo:
            retry_call(doomed, policy=policy, describe="journal append",
                       sleep=lambda _: None)
        assert isinstance(excinfo.value.__cause__, InjectedIOError)

    def test_non_retryable_errors_pass_straight_through(self):
        calls = {"n": 0}

        def torn():
            calls["n"] += 1
            raise InjectedCrash("torn write")

        with pytest.raises(InjectedCrash):
            retry_call(torn, sleep=lambda _: None)
        assert calls["n"] == 1  # retrying a torn write would corrupt the file

    def test_delay_schedule_is_seeded_and_capped(self):
        policy = RetryPolicy(attempts=6, base_delay=0.01, factor=10.0,
                             max_delay=0.2, jitter=0.5, seed=4)
        first, second = policy.delays(), policy.delays()
        assert first == second
        assert len(first) == 5
        assert all(delay <= 0.2 for delay in first)
        assert all(delay >= 0.2 * 0.5 for delay in first[2:])  # capped, jittered

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


# --------------------------------------------------------------------- #
# Atomic writes
# --------------------------------------------------------------------- #
class TestAtomicWrites:
    def test_atomic_write_json_round_trip(self, tmp_path):
        from repro.api.serialize import atomic_write_json

        target = tmp_path / "deep" / "manifest.json"
        payload = {"grid_digest": "abc", "lease_seconds": 300.0}
        assert atomic_write_json(target, payload) == target
        assert json.loads(target.read_text(encoding="utf-8")) == payload
        # No scratch file left behind: the rename consumed it.
        assert [p.name for p in target.parent.iterdir()] == ["manifest.json"]

    def test_atomic_write_replaces_existing_content(self, tmp_path):
        from repro.api.serialize import atomic_write_text

        target = tmp_path / "config.json"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "new"

    def test_write_json_routes_through_atomic_helper(self, tmp_path):
        from repro.api.serialize import write_json

        target = tmp_path / "result.json"
        write_json(target, {"mean_delay": 2.0})
        assert json.loads(target.read_text(encoding="utf-8")) == {"mean_delay": 2.0}
        assert not list(tmp_path.glob("*.tmp"))

    def test_manifest_write_is_atomic_under_injected_crash(self, tmp_path):
        """A fault at the manifest hook must leave either no manifest or a
        complete one — never a half-written file."""
        from repro.campaigns.manifest import CampaignManifest

        install(FaultPlan(faults=[
            FaultSpec(site="manifest.write", kind="io_error")
        ]))
        manifest = CampaignManifest(grid={}, grid_digest="x")
        with pytest.raises(InjectedIOError):
            manifest.write(tmp_path)
        assert not (tmp_path / "manifest.json").exists()
        clear()
        manifest.write(tmp_path)
        assert json.loads((tmp_path / "manifest.json").read_text())["grid_digest"] == "x"


# --------------------------------------------------------------------- #
# Poison-task quarantine (queue level)
# --------------------------------------------------------------------- #
class TestQueueQuarantine:
    def test_quarantine_removes_from_circulation(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a", "b", "c"])
            assert queue.lease("w0") == "a"
            queue.quarantine("a")
            assert queue.is_quarantined("a")
            assert queue.quarantined_ids() == {"a"}
            assert queue.outstanding == 2  # quarantined tasks are owed nothing
            assert queue.lease("w0") == "b"  # never re-leased
            queue.quarantine("a")  # idempotent
            assert queue.counts()["quarantined"] == 1

    def test_quarantine_survives_replay_and_reenqueue(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(["a", "b"])
            queue.lease("w0")
            queue.quarantine("a")
        with TaskQueue(journal) as queue:
            assert queue.is_quarantined("a")
            assert queue.enqueue(["a", "b"]) == 0  # known ids: never resurrected
            assert queue.lease("w1") == "b"
            assert queue.lease("w1") is None

    def test_late_completion_wins_over_quarantine(self, tmp_path):
        """A completion racing a quarantine proves the task was not poison:
        done wins, on line and on replay, and the sets stay disjoint."""
        journal = tmp_path / "j.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(["a"])
            queue.lease("w0")
            queue.quarantine("a")
            queue.complete("a")
            assert queue.is_done("a") and not queue.is_quarantined("a")
            counts = queue.counts()
            assert counts["done"] == 1 and counts["quarantined"] == 0
        with TaskQueue(journal) as queue:
            assert queue.is_done("a") and not queue.is_quarantined("a")

    def test_quarantine_of_unknown_or_done_task_raises(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a"])
            with pytest.raises(QueueError, match="unknown"):
                queue.quarantine("ghost")
            queue.lease("w0")
            queue.complete("a")
            with pytest.raises(QueueError, match="completed"):
                queue.quarantine("a")


# --------------------------------------------------------------------- #
# Ordered accumulator: skipping permanent holes
# --------------------------------------------------------------------- #
class TestAccumulatorSkip:
    def test_skip_unblocks_the_ordered_fold(self):
        accumulator = PointAccumulator()
        accumulator.add(0, {"mean_delay": 2.0})
        accumulator.add(2, {"mean_delay": 2.2})  # buffered behind the hole
        assert accumulator.count == 1 and accumulator.buffered == 1
        assert accumulator.skip(1) is True
        assert accumulator.count == 2  # 0 and 2 folded; the hole contributes nothing
        assert accumulator.buffered == 0
        assert accumulator.statistics("mean_delay").n == 2

    def test_skip_is_idempotent_and_rejects_folded_indices(self):
        accumulator = PointAccumulator()
        accumulator.add(0, {"mean_delay": 2.0})
        assert accumulator.skip(0) is False  # already folded
        assert accumulator.skip(1) is True
        assert accumulator.skip(1) is False  # already advanced past

    def test_record_for_a_skipped_slot_is_ignored(self):
        accumulator = PointAccumulator()
        accumulator.skip(0)
        assert accumulator.add(0, {"mean_delay": 9.9}) is False
        accumulator.add(1, {"mean_delay": 2.0})
        assert accumulator.count == 1
        assert accumulator.statistics("mean_delay").mean == pytest.approx(2.0)

"""Unit tests for the campaign building blocks.

Streaming accumulators against two-pass statistics, the durable task
queue's transition/replay/release machinery, and the torn-line hardening of
the JSONL layer.
"""

import json
import math
import statistics
import warnings

import pytest

from repro.campaigns.accumulators import PointAccumulator
from repro.campaigns.queue import QueueError, TaskQueue
from repro.ensemble.results import iter_jsonl, read_jsonl, repair_jsonl
from repro.ensemble.stats import ReplicationStatistics, student_t_quantile


# --------------------------------------------------------------------- #
# Streaming (Welford) moments against a two-pass oracle
# --------------------------------------------------------------------- #
class TestStreamingMoments:
    """:class:`ReplicationStatistics` folds in O(1) memory; the stdlib's
    two-pass ``statistics.fmean`` / ``statistics.variance`` is the oracle."""

    def test_matches_batch_statistics_to_1e12(self):
        # Simulation-scale values (delays are O(1)..O(100)): streaming and
        # batch must agree far below any tolerance an assertion would use.
        samples = [2.0 + math.sin(i) * 0.3 + i * 0.01 for i in range(257)]
        moments = ReplicationStatistics(confidence=0.99)
        for value in samples:
            moments.add(value)
        mean = statistics.fmean(samples)
        variance = statistics.variance(samples)
        half_width = student_t_quantile(0.99, len(samples) - 1) * math.sqrt(variance / len(samples))
        assert moments.n == len(samples)
        assert moments.mean == pytest.approx(mean, rel=1e-12)
        assert moments.variance == pytest.approx(variance, rel=1e-12)
        assert moments.std == pytest.approx(math.sqrt(variance), rel=1e-12)
        assert moments.half_width == pytest.approx(half_width, rel=1e-12)
        assert moments.minimum == min(samples)
        assert moments.maximum == max(samples)

    def test_no_catastrophic_cancellation(self):
        # Large offset + small spread is where a naive sum-of-squares
        # accumulator loses most of its digits; Welford keeps them close to
        # the (accurate) two-pass formula even here.
        samples = [1e6 + math.sin(i) * 1e-3 + i * 0.1 for i in range(257)]
        moments = ReplicationStatistics()
        for value in samples:
            moments.add(value)
        variance = statistics.variance(samples)
        assert moments.variance == pytest.approx(variance, rel=1e-9)
        naive = (
            math.fsum(x * x for x in samples) - len(samples) * statistics.fmean(samples) ** 2
        ) / (len(samples) - 1)
        # Welford is no worse than the naive accumulator on this sample.
        assert abs(moments.variance - variance) <= abs(naive - variance) + 1e-12

    def test_degenerate_counts(self):
        moments = ReplicationStatistics()
        assert math.isnan(moments.variance)
        assert math.isnan(moments.standard_error)
        assert all(math.isnan(moments.to_dict()[key]) for key in ("min", "max"))
        moments.add(4.0)
        assert moments.mean == 4.0
        assert math.isnan(moments.variance)  # ddof=1 needs two observations
        assert math.isnan(moments.half_width)
        assert not moments.precision_reached(0.5)

    def test_precision_rule_matches_batch(self):
        samples = [2.0, 2.1, 1.9, 2.05, 1.95, 2.02]
        moments = ReplicationStatistics(confidence=0.95)
        for value in samples:
            moments.add(value)
        relative = (
            student_t_quantile(0.95, len(samples) - 1)
            * statistics.stdev(samples) / math.sqrt(len(samples))
            / statistics.fmean(samples)
        )
        for target in (0.5, 0.05, 0.01, 0.001):
            assert moments.precision_reached(target) == (relative <= target)

    def test_constant_memory_slots(self):
        moments = ReplicationStatistics()
        for i in range(50_000):
            moments.add(float(i))
        # __slots__ means no __dict__ — nothing can grow with the sample count.
        assert not hasattr(moments, "__dict__")
        assert moments.n == 50_000


class TestPointAccumulator:
    RECORDS = [
        {"replication": i, "seed": 100 + i, "mean_delay": 2.0 + 0.01 * i, "utilization": 0.9,
         "wall_seconds": 0.5, "kernel": "uniformized"}
        for i in range(8)
    ]

    def test_out_of_order_fold_is_order_independent(self):
        forward = PointAccumulator()
        for record in self.RECORDS:
            assert forward.add(record["replication"], record)
        shuffled = PointAccumulator()
        order = [5, 0, 3, 1, 7, 2, 4, 6]
        for index in order:
            shuffled.add(index, self.RECORDS[index])
        assert shuffled.count == forward.count == len(self.RECORDS)
        assert shuffled.buffered == 0
        # Bitwise equality, not approx: the fold order is pinned.
        assert shuffled.summary() == forward.summary()

    def test_duplicates_rejected(self):
        accumulator = PointAccumulator()
        assert accumulator.add(0, self.RECORDS[0])
        assert not accumulator.add(0, self.RECORDS[0])  # already folded
        assert accumulator.add(2, self.RECORDS[2])      # buffered
        assert not accumulator.add(2, self.RECORDS[2])  # duplicate in buffer
        assert accumulator.count == 1 and accumulator.buffered == 1
        accumulator.add(1, self.RECORDS[1])
        assert accumulator.count == 3 and accumulator.buffered == 0

    def test_non_metric_keys_excluded(self):
        accumulator = PointAccumulator()
        accumulator.add(0, {"replication": 0, "seed": 1, "mean_delay": 2.0,
                            "wall_seconds": 1.0, "events_per_second": 1e6,
                            "kernel": "uniformized", "converged": True})
        names = accumulator.metric_names()
        assert "mean_delay" in names
        assert "wall_seconds" not in names          # timing noise
        assert "events_per_second" not in names     # timing noise
        assert "seed" not in names                  # bookkeeping
        assert "converged" not in names             # bool is not a metric

    def test_streaming_matches_batch_on_metric(self):
        accumulator = PointAccumulator(confidence=0.95)
        for record in self.RECORDS:
            accumulator.add(record["replication"], record)
        batch = ReplicationStatistics.from_samples(
            [r["mean_delay"] for r in self.RECORDS], confidence=0.95
        )
        # Exact: the ordered fold and from_samples run the same arithmetic.
        assert accumulator.mean_and_half_width("mean_delay") == (batch.mean, batch.half_width)
        assert accumulator.summary()["mean_delay"] == batch.to_dict()


# --------------------------------------------------------------------- #
# Durable task queue
# --------------------------------------------------------------------- #
class TestTaskQueue:
    def test_lease_complete_roundtrip_and_replay(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with TaskQueue(journal) as queue:
            assert queue.enqueue(["p:0", "p:1", "p:2"]) == 3
            assert queue.enqueue(["p:0"]) == 0  # idempotent
            assert queue.lease("w0") == "p:0"
            queue.complete("p:0")
            assert queue.lease("w0") == "p:1"
            assert queue.counts() == {
                "pending": 1, "leased": 1, "done": 1, "quarantined": 0, "total": 3,
            }
        # Replay: the lease on p:1 is stale (its process is gone) and is
        # reclaimed to the FRONT of the queue.
        with TaskQueue(journal) as queue:
            assert queue.counts() == {
                "pending": 2, "leased": 0, "done": 1, "quarantined": 0, "total": 3,
            }
            assert queue.lease("w1") == "p:1"

    def test_release_goes_to_front(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a", "b", "c"])
            assert queue.lease("w0") == "a"
            queue.release("a")
            assert queue.lease("w1") == "a"  # work stealing: reclaimed first

    def test_invalid_transitions_raise(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a"])
            with pytest.raises(QueueError):
                queue.complete("ghost")
            with pytest.raises(QueueError):
                queue.release("a")  # never leased
            queue.lease("w0")
            queue.complete("a")
            queue.complete("a")  # idempotent completion is fine

    def test_torn_trailing_journal_line_is_repaired(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(["a", "b"])
            queue.lease("w0")
            queue.complete("a")
        # Simulate a crash mid-append: half a "done" event for b.
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "ta')
        with TaskQueue(journal) as queue:
            assert queue.is_done("a")
            assert not queue.is_done("b")
            assert queue.lease("w1") == "b"  # still runnable

    def test_read_only_queue_never_writes(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(["a", "b"])
            queue.lease("w0")
        before = journal.read_bytes()
        snapshot = TaskQueue(journal, reclaim_stale=False, read_only=True)
        assert snapshot.counts()["leased"] == 1  # stale lease NOT reclaimed
        with pytest.raises(QueueError):
            snapshot.enqueue(["c"])
        assert journal.read_bytes() == before

    def test_memory_is_ids_only(self, tmp_path):
        # The queue journals ids, never payloads: a thousand tasks cost a
        # thousand small strings, and the journal has no spec material in it.
        journal = tmp_path / "journal.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(f"deadbeefcafef00d:{i}" for i in range(1000))
        text = journal.read_text(encoding="utf-8")
        assert "num_servers" not in text and "spec" not in text
        assert len(text.splitlines()) == 1000


# --------------------------------------------------------------------- #
# Torn-line hardening of the JSONL layer (satellite)
# --------------------------------------------------------------------- #
class TestTornJsonl:
    def _write(self, path, lines, tail=""):
        with path.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
            handle.write(tail)

    def test_reader_skips_and_warns_on_torn_tail(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write(path, [{"a": 1}, {"a": 2}], tail='{"a": 3, "tru')
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            records = read_jsonl(path)
        assert records == [{"a": 1}, {"a": 2}]

    def test_reader_raises_on_midfile_corruption(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n{"bro\n{"a": 2}\n')
        with pytest.raises(ValueError, match="mid-file"):
            list(iter_jsonl(path))

    def test_clean_file_reads_without_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write(path, [{"a": 1}, {"a": 2}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_jsonl(path)) == 2

    def test_repair_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write(path, [{"a": 1}], tail='{"a": 2, "tr')
        removed = repair_jsonl(path)
        assert removed == len('{"a": 2, "tr')
        assert read_jsonl(path) == [{"a": 1}]
        assert repair_jsonl(path) == 0  # clean now
        assert repair_jsonl(tmp_path / "absent.jsonl") == 0

    def test_repair_refuses_midfile_corruption(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n{"bro\n{"a": 2}\n')
        with pytest.raises(ValueError, match="mid-file"):
            repair_jsonl(path)


class TestLeaseClockEdges:
    """Lease edges: a released lease must never let one task fold twice."""

    def test_reclaim_then_late_completion_folds_exactly_once(self, tmp_path):
        """The canonical split-brain race: w0 is presumed dead and its lease
        released mid-task, the task is re-leased to w1, and *then* w0's
        completion arrives.  Done must win exactly once — on the queue, in
        the journal, and in the accumulator fold."""
        journal = tmp_path / "j.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(["a", "b"])
            queue.lease("w0")
            assert queue.leased_by("w0") == ["a"]
            queue.release("a")  # the reaper's path: w0 presumed dead
            assert queue.lease("w1") == "a"  # re-leased

            queue.complete("a")  # w0 was alive after all: late completion
            queue.complete("a")  # ... and w1 finishes the same task later
            assert queue.is_done("a")
            assert queue.counts()["done"] == 1

            # Exactly one durable "done" event, despite two completions.
            events = [
                json.loads(line)
                for line in journal.read_text(encoding="utf-8").splitlines()
            ]
            assert sum(1 for e in events if e.get("event") == "done") == 1

        # The replayed queue agrees with the live one.
        with TaskQueue(journal) as queue:
            assert queue.is_done("a") and queue.counts()["done"] == 1
            assert queue.lease("w2") == "b"  # only the unfinished task

        # And the accumulator folds the record once no matter how many
        # times the duplicated completion hands it the same replication.
        accumulator = PointAccumulator()
        assert accumulator.add(0, {"mean_delay": 2.0}) is True
        assert accumulator.add(0, {"mean_delay": 2.0}) is False
        assert accumulator.count == 1
        assert accumulator.statistics("mean_delay").n == 1

"""Constant-memory per-point statistics for campaign-scale sweeps.

A million-job campaign cannot afford per-job lists: folding each
replication record into one :class:`repro.ensemble.stats.ReplicationStatistics`
(a Welford accumulator) per metric keeps the scheduler's footprint at
``O(points)``, independent of how many replications each point accumulates.

:class:`PointAccumulator` folds all metrics of one grid point in
**replication order**.  Records may arrive from workers in any order; the
accumulator buffers out-of-order arrivals (bounded by the in-flight batch,
not by the campaign size) and folds them strictly as replication 0, 1,
2, ...  A fixed fold order is what makes the final campaign estimates
*bitwise identical* no matter how tasks were scheduled, how many workers
ran, or how often the campaign was interrupted and resumed — and equal to
:meth:`repro.ensemble.runner.EnsembleResult.statistics` of the same records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.ensemble.stats import ReplicationStatistics
from repro.utils.validation import ValidationError

__all__ = ["PointAccumulator"]

#: Record keys that are bookkeeping or wall-clock noise, never metrics.
NON_METRIC_KEYS = frozenset(
    {
        "replication",
        "seed",
        "wall_seconds",
        "events_per_second",
        "kernel",
        "spec",
        "backend",
        "kind",
        "parameters",
        "labels",
        "point",
        "campaign",
        "ensemble_seed",
        "confidence",
        "provenance",
    }
)


class PointAccumulator:
    """All metric statistics of one grid point, folded in replication order.

    ``add`` accepts records in *any* arrival order and returns whether the
    record was fresh; duplicates (a task re-run after a crash that lost the
    completion marker but not the record) are ignored, which is safe because
    content-addressed seeds make a re-run's metrics identical anyway.
    """

    __slots__ = ("confidence", "metrics", "next_index", "folded", "_pending", "_skipped")

    def __init__(self, confidence: float = 0.95) -> None:
        if not (0.0 < confidence < 1.0):
            raise ValidationError(f"confidence must be in (0, 1), got {confidence!r}")
        self.confidence = confidence
        self.metrics: Dict[str, ReplicationStatistics] = {}
        self.next_index = 0  # replication index the ordered fold expects next
        self.folded = 0  # records actually folded (skipped holes excluded)
        self._pending: Dict[int, Dict[str, float]] = {}
        self._skipped: set = set()

    @staticmethod
    def metric_values(record: Mapping[str, Any]) -> Dict[str, float]:
        """The foldable scalar metrics of one replication record."""
        values = {}
        for key, value in record.items():
            if key in NON_METRIC_KEYS or isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                values[key] = float(value)
        return values

    def add(self, replication: int, record: Mapping[str, Any]) -> bool:
        """Fold one record; returns ``False`` for duplicates."""
        replication = int(replication)
        if (
            replication < self.next_index
            or replication in self._pending
            or replication in self._skipped
        ):
            return False
        self._pending[replication] = self.metric_values(record)
        self._advance()
        return True

    def skip(self, replication: int) -> bool:
        """Advance the ordered fold past a hole that will never fill.

        A quarantined poison task produces no record, ever; without a skip
        the contiguous fold would stall at its index and every later record
        of the point would buffer forever.  Skipped indices contribute no
        observations — they only unblock the fold.
        """
        replication = int(replication)
        if replication < self.next_index or replication in self._skipped:
            return False
        self._skipped.add(replication)
        self._advance()
        return True

    def _advance(self) -> None:
        while True:
            if self.next_index in self._pending:
                for key, value in self._pending.pop(self.next_index).items():
                    statistics = self.metrics.get(key)
                    if statistics is None:
                        statistics = self.metrics[key] = ReplicationStatistics(self.confidence)
                    statistics.add(value)
                self.folded += 1
                self.next_index += 1
            elif self.next_index in self._skipped:
                self._skipped.discard(self.next_index)
                self.next_index += 1
            else:
                return

    @property
    def count(self) -> int:
        """Replications folded so far (records only; skipped holes excluded)."""
        return self.folded

    @property
    def buffered(self) -> int:
        """Out-of-order records waiting for a predecessor (bounded by the
        in-flight window, not the campaign size)."""
        return len(self._pending)

    def statistics(self, metric: str = "mean_delay") -> ReplicationStatistics:
        """Statistics of one metric (an empty accumulator if never observed)."""
        return self.metrics.get(metric, ReplicationStatistics(self.confidence))

    def precision_reached(self, target: Optional[float], metric: str = "mean_delay") -> bool:
        """Per-point stopping rule on the headline metric."""
        if target is None:
            return False
        return self.statistics(metric).precision_reached(target)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-metric flat summaries, metric names sorted."""
        return {name: self.metrics[name].to_dict() for name in sorted(self.metrics)}

    def metric_names(self) -> List[str]:
        return sorted(self.metrics)

    def mean_and_half_width(self, metric: str = "mean_delay") -> Tuple[float, float]:
        statistics = self.statistics(metric)
        return statistics.mean, statistics.half_width

"""Per-job output of the cluster simulation, with warm-up handling.

Confidence intervals come from independent replications
(:class:`repro.ensemble.stats.ReplicationStatistics`), not from within a run.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np


class WaitingTimeAccumulator:
    """Collects per-job metrics with an optional warm-up discard.

    The first ``warmup_jobs`` completed jobs are discarded, mirroring the
    paper's simulation methodology (10^8 jobs simulated, first 10^7
    discarded).
    """

    def __init__(self, warmup_jobs: int = 0):
        if warmup_jobs < 0:
            raise ValueError("warmup_jobs must be non-negative")
        self._warmup_jobs = warmup_jobs
        self._seen = 0
        self._waiting_times: List[float] = []
        self._sojourn_times: List[float] = []

    @property
    def recorded_jobs(self) -> int:
        return len(self._sojourn_times)

    @property
    def discarded_jobs(self) -> int:
        return min(self._seen, self._warmup_jobs)

    def record(self, waiting_time: float, sojourn_time: float) -> None:
        self._seen += 1
        if self._seen <= self._warmup_jobs:
            return
        self._waiting_times.append(waiting_time)
        self._sojourn_times.append(sojourn_time)

    def waiting_times(self) -> np.ndarray:
        return np.asarray(self._waiting_times, dtype=float)

    def sojourn_times(self) -> np.ndarray:
        return np.asarray(self._sojourn_times, dtype=float)

    def mean_waiting_time(self) -> float:
        return float(np.mean(self._waiting_times)) if self._waiting_times else math.nan

    def mean_sojourn_time(self) -> float:
        return float(np.mean(self._sojourn_times)) if self._sojourn_times else math.nan

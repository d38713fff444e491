"""Regenerate ``references.json``: reference delays for the statistical checks.

The campaign and cluster workloads check each point's delay against a
reference estimate of the *same* estimator (same spec, same horizon), made
once with a seed the benchmark does not use and many more replications.
Run it only when a workload's definition changes::

    python3 perfbench/make_references.py        # about two minutes on 2 cores
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import (
    CLUSTER_JOBS,
    POOL_GRID,
    SMALL_TASKS_GRID,
    cluster_spec,
    reference_key,
)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

REFERENCE_SEED = 2016
REPLICATIONS = {"campaign_small_tasks": 2_000, "campaign_adaptive_pool": 192, "cluster_bursty": 192}


def estimate(spec, backend: str, replications: int) -> dict:
    import repro

    result = repro.run(spec, backend=backend, replications=replications, workers=2,
                       seed=REFERENCE_SEED)
    return {"mean": result.mean_delay, "half_width": result.half_width,
            "replications": result.replications}


def main() -> int:
    from repro.ensemble.grid import GridConfig

    references = {}
    for workload, axes in (("campaign_small_tasks", SMALL_TASKS_GRID), ("campaign_adaptive_pool", POOL_GRID)):
        grid = GridConfig(choices=(2,), **axes)
        references[workload] = {
            reference_key(point["labels"]["N"], point["labels"]["utilization"]):
                estimate(point["spec"], point["backend"], REPLICATIONS[workload])
            for point in grid.points()
        }
    references["cluster_bursty"] = {
        reference_key(100, 0.9): estimate(
            cluster_spec(100, CLUSTER_JOBS, REFERENCE_SEED), "cluster", REPLICATIONS["cluster_bursty"]
        )
    }
    (HERE / "references.json").write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

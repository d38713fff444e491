"""Durable, sharded, resumable sweep campaigns.

``repro.campaigns`` turns a :class:`~repro.ensemble.grid.GridConfig` into a
durable on-disk work queue of content-addressed replication tasks, drives it
with leased worker processes, folds results through constant-memory
streaming accumulators, and applies the relative-precision stopping rule
*per grid point* — extra replications go where confidence intervals are
widest, converged points retire early.  A campaign interrupted at any
instant (including SIGKILL) resumes from its directory and finishes with
results bitwise identical to an uninterrupted run.  The scheduler also runs
every replicated run (:func:`repro.ensemble.run_ensembles`), as a session
without a directory.

See ``docs/campaigns.md`` for the full story, ``repro-lb campaign --help``
for the CLI.
"""

from repro.campaigns.accumulators import PointAccumulator
from repro.campaigns.manifest import (
    CampaignManifest,
    grid_digest,
    grid_from_dict,
    grid_to_dict,
)
from repro.campaigns.queue import QueueError, TaskQueue
from repro.campaigns.scheduler import (
    CampaignError,
    CampaignPoint,
    CampaignResult,
    CampaignStatus,
    campaign_fingerprint,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.worker import execute_task, worker_loop

__all__ = [
    "CampaignError",
    "CampaignManifest",
    "CampaignPoint",
    "CampaignResult",
    "CampaignStatus",
    "PointAccumulator",
    "QueueError",
    "TaskQueue",
    "campaign_fingerprint",
    "campaign_status",
    "execute_task",
    "grid_digest",
    "grid_from_dict",
    "grid_to_dict",
    "resume_campaign",
    "run_campaign",
    "worker_loop",
]

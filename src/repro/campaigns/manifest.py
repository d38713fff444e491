"""Campaign manifest: the durable identity of a sweep campaign.

``manifest.json`` is written once, atomically, when a campaign directory is
created, and is the *only* input a resume needs besides the journal and the
record store: it carries the full grid configuration (so the content-
addressed task set can be regenerated), the adaptive-replication policy, a
digest of the grid (so a resume against a *different* grid fails loudly
instead of silently mixing two experiments), and provenance (git describe,
package version, python, creation timestamp).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.api.serialize import atomic_write_json, jsonable
from repro.api.spec import OPTIONS, SpecError, WorkloadSpec
from repro.faults import maybe_fire
from repro.ensemble.grid import GridConfig

__all__ = [
    "CampaignManifest",
    "MANIFEST_FILENAME",
    "grid_digest",
    "grid_from_dict",
    "grid_to_dict",
]

MANIFEST_FILENAME = "manifest.json"

#: Manifest schema version; bump on incompatible layout changes.
CAMPAIGN_FORMAT = 1


def grid_to_dict(config: GridConfig) -> Dict[str, Any]:
    """A JSON-round-trippable view of a :class:`GridConfig`.

    ``"kernel": "auto"`` selects nothing (the fleet engine has one event
    kernel); it stays because the grid digest, which names every campaign
    directory, hashes this dict.
    """
    return {
        "server_counts": [int(n) for n in config.server_counts],
        "choices": [int(d) for d in config.choices],
        "utilizations": [float(u) for u in config.utilizations],
        "scenarios": list(config.scenarios),
        "policy": config.policy,
        "num_events": config.num_events,
        "replications": config.replications,
        "workers": config.workers,
        "seed": config.seed,
        "confidence": config.confidence,
        "bounds": config.bounds,
        "threshold": config.threshold,
        "kernel": "auto",
        "workloads": [workload.to_dict() for workload in config.workloads],
        "num_jobs": config.num_jobs,
    }


def grid_from_dict(payload: Mapping[str, Any]) -> GridConfig:
    """Rebuild a :class:`GridConfig` from :func:`grid_to_dict` output.

    A stored ``kernel`` must be a value the spec option accepts (``"auto"``
    or ``"uniformized"``); a manifest naming the removed ``python`` kernel
    raises :class:`SpecError`.
    """
    kwargs = dict(payload)
    kernel = kwargs.pop("kernel", "auto")
    accepts, valid = OPTIONS["kernel"]
    if not valid(kernel):
        raise SpecError(f"campaign grid kernel must be {accepts}, got {kernel!r}")
    kwargs["server_counts"] = tuple(kwargs.get("server_counts", ()))
    kwargs["choices"] = tuple(kwargs.get("choices", ()))
    kwargs["utilizations"] = tuple(kwargs.get("utilizations", ()))
    kwargs["scenarios"] = tuple(kwargs.get("scenarios", ()))
    kwargs["workloads"] = tuple(
        WorkloadSpec.from_dict(workload) for workload in kwargs.get("workloads", ())
    )
    return GridConfig(**kwargs)


def grid_digest(config: GridConfig) -> str:
    """Content digest of the grid: the campaign's experiment identity.

    Deliberately excludes ``workers`` — how many processes chew on the queue
    is an operational knob, not part of what is being measured, and a resume
    may legitimately use a different worker count.
    """
    payload = grid_to_dict(config)
    payload.pop("workers", None)
    canonical = json.dumps(jsonable(payload), sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignManifest:
    """Everything a resume needs to regenerate the campaign's task set."""

    grid: Dict[str, Any]
    grid_digest: str
    target_relative_half_width: Optional[float] = None
    max_replications: int = 64
    batch_size: int = 4
    task_timeout_seconds: Optional[float] = None
    quarantine_after: int = 3
    provenance: Dict[str, Any] = field(default_factory=dict)
    format: int = CAMPAIGN_FORMAT

    def grid_config(self, workers: Optional[int] = None) -> GridConfig:
        """The reconstructed grid (optionally overriding the worker count)."""
        payload = dict(self.grid)
        if workers is not None:
            payload["workers"] = workers
        return grid_from_dict(payload)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": self.format,
            "grid": self.grid,
            "grid_digest": self.grid_digest,
            "target_relative_half_width": self.target_relative_half_width,
            "max_replications": self.max_replications,
            "batch_size": self.batch_size,
            "task_timeout_seconds": self.task_timeout_seconds,
            "quarantine_after": self.quarantine_after,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignManifest":
        if payload.get("format", CAMPAIGN_FORMAT) > CAMPAIGN_FORMAT:
            raise SpecError(
                f"campaign manifest format {payload.get('format')} is newer than "
                f"this package understands ({CAMPAIGN_FORMAT}); upgrade repro"
            )
        return cls(
            grid=dict(payload["grid"]),
            grid_digest=payload["grid_digest"],
            target_relative_half_width=payload.get("target_relative_half_width"),
            max_replications=int(payload.get("max_replications", 64)),
            batch_size=int(payload.get("batch_size", 4)),
            task_timeout_seconds=(
                None
                if payload.get("task_timeout_seconds") is None
                else float(payload["task_timeout_seconds"])
            ),
            quarantine_after=int(payload.get("quarantine_after", 3)),
            provenance=dict(payload.get("provenance", {})),
            format=int(payload.get("format", CAMPAIGN_FORMAT)),
        )

    def write(self, directory: Union[str, Path]) -> Path:
        """Atomically write ``manifest.json`` through the shared
        write-fsync-rename helper, so a crash at any instant leaves either
        no manifest or a complete one — never a half-written file."""
        directory = Path(directory)
        target = directory / MANIFEST_FILENAME
        maybe_fire("manifest.write", key=self.grid_digest)
        return atomic_write_json(target, self.to_dict())

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "CampaignManifest":
        target = Path(directory) / MANIFEST_FILENAME
        if not target.exists():
            raise SpecError(
                f"no campaign manifest at {target} — "
                "is this a campaign directory created by `repro-lb campaign run`?"
            )
        return cls.from_dict(json.loads(target.read_text(encoding="utf-8")))

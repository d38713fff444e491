"""JSONL persistence for replication records, with provenance.

Figures should be re-plottable without re-simulating.  A durable campaign
(:mod:`repro.campaigns`) appends each replication to its ``records.jsonl``
through :class:`ResultStore` as a self-contained record: the experiment
spec and backend, the point's seed *and* the replication's own derived
seed, every scalar metric; :func:`provenance` (package version, git
describe of the working tree, timestamp, python version) goes into the
campaign manifest and every ``RunResult``.  JSONL — one JSON object per
line — makes the store append-only (two processes can interleave whole
lines), diff-friendly, and streamable: a million-record store never needs
to be parsed whole.

No third-party dependency: :mod:`json` for the records, :mod:`subprocess`
for ``git describe`` (silently degraded to ``None`` outside a git checkout).

Appends are hardened the same way the campaign journal is: each batch is
wrapped in seeded-backoff retries (:mod:`repro.utils.retry`) so a transient
I/O error never loses a replication, and every line passes the
``"records.append"`` fault-injection hook (:mod:`repro.faults`), a no-op
unless a chaos plan is armed.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.faults import maybe_fire
from repro.utils.retry import RetryPolicy, retry_call

__all__ = [
    "ResultStore",
    "git_describe",
    "iter_jsonl",
    "provenance",
    "read_jsonl",
    "repair_jsonl",
]


def git_describe(path: Optional[Union[str, Path]] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the tree containing ``path``.

    Returns ``None`` when git is unavailable or the path is not inside a
    repository — provenance is best-effort, never a hard dependency.
    """
    directory = Path(path).resolve() if path is not None else Path(__file__).resolve()
    if directory.is_file():
        directory = directory.parent
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=directory,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


@functools.lru_cache(maxsize=1)
def _package_git_describe() -> Optional[str]:
    """:func:`git_describe` of the package's own tree, spawned once per process."""
    return git_describe()


def provenance() -> Dict[str, Any]:
    """Re-run metadata attached to every stored record.

    The ``git`` entry is read once per process: a tree edited while the
    process runs keeps the description (and the ``-dirty`` flag) it had at
    the first call.
    """
    from repro import __version__

    return {
        "package_version": __version__,
        "git": _package_git_describe(),
        "python": sys.version.split()[0],
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def iter_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Stream the records of a JSONL file one at a time (constant memory).

    Blank lines are skipped.  A *trailing* record that does not parse —
    the torn half-line a process killed mid-append leaves behind — is
    skipped with a :class:`RuntimeWarning` instead of raising, so resuming
    an interrupted run never chokes on its own interruption artifact.  An
    unparsable record *followed by further data* is real corruption (whole-
    line appends can only tear the tail) and still raises ``ValueError``.
    """
    source = Path(path)
    pending_error: Optional[str] = None
    with source.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if pending_error is not None:
                raise ValueError(f"corrupt JSONL record mid-file: {pending_error}")
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as error:
                pending_error = f"{source}:{number}: {error}"
                continue
            yield record
    if pending_error is not None:
        warnings.warn(
            f"skipping truncated trailing record ({pending_error}) — "
            "likely a crash mid-append; the record will be regenerated on resume",
            RuntimeWarning,
            stacklevel=2,
        )


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load every record of a JSONL file (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def repair_jsonl(path: Union[str, Path]) -> int:
    """Truncate a torn trailing record before re-opening a store for append.

    Readers merely *skip* a torn tail (:func:`iter_jsonl`); a writer about
    to append must physically remove it, otherwise the next appended line
    would glue onto the fragment and turn a recoverable tear into mid-file
    corruption.  Returns the number of bytes truncated (0 when clean);
    raises ``ValueError`` on corruption that is not a trailing tear.
    """
    source = Path(path)
    if not source.exists():
        return 0
    torn_offset: Optional[int] = None
    offset = 0
    with source.open("rb") as handle:
        for raw in handle:
            stripped = raw.strip()
            if stripped:
                if torn_offset is not None:
                    raise ValueError(
                        f"{source}: corrupt JSONL record mid-file at byte {torn_offset}"
                    )
                try:
                    json.loads(stripped.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    torn_offset = offset
            offset += len(raw)
    if torn_offset is None:
        return 0
    size = source.stat().st_size
    with source.open("rb+") as handle:
        handle.truncate(torn_offset)
        handle.flush()
        os.fsync(handle.fileno())
    return size - torn_offset


@dataclass
class ResultStore:
    """Append-only JSONL store for replication records.

    Parameters
    ----------
    path : str or Path
        Store location; the parent directory is created on first append.

    Examples
    --------
    >>> store = ResultStore("/tmp/doctest-records.jsonl")  # doctest: +SKIP
    >>> store.extend(result.records)                       # doctest: +SKIP
    >>> len(store.load())                                  # doctest: +SKIP
    8
    """

    path: Path

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record as a single JSON line (flushed immediately)."""
        self.extend([record])

    def extend(self, records) -> None:
        """Append many records in one open/flush/close cycle.

        Each record is still written as one whole line, preserving the
        interleaving-safety of line-wise appends.  Every line is retried
        under seeded backoff on transient ``OSError`` — whole-line appends
        are idempotent at worst (a duplicated line, which readers
        de-duplicate), so re-invoking the write is always safe.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            for record in records:
                line = (
                    json.dumps(record, sort_keys=True, default=_json_default) + "\n"
                )
                key = f"{record.get('point', '')}:{record.get('replication', '')}"

                def append(line=line, key=key) -> None:
                    maybe_fire("records.append", key=key, handle=handle, line=line)
                    handle.write(line)
                    handle.flush()

                retry_call(append, policy=RetryPolicy(), describe="record append")

    def load(self) -> List[Dict[str, Any]]:
        """All records currently in the store (empty list if absent)."""
        if not self.path.exists():
            return []
        return read_jsonl(self.path)

    def stream(self) -> Iterator[Dict[str, Any]]:
        """Yield records one at a time without materializing the store.

        This is the constant-memory path campaign finalization folds
        through — a million-record store is never parsed whole.
        """
        if not self.path.exists():
            return
        yield from iter_jsonl(self.path)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return self.stream()

    def __len__(self) -> int:
        return len(self.load())


def _json_default(value):
    """Serialize numpy scalars and other floats-in-disguise."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)

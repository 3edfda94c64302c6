"""The service's job table: one entry per distinct content hash.

A job's identity in the service is its content hash — the same
SHA-256 the result cache and journal key on — so deduplication is
structural: submitting a spec whose hash is already known (queued,
running, or finished) returns the existing entry instead of creating
a second one; the later submitter "attaches" to the first's outcome
and only the ``submissions`` counter grows.

An entry walks ``queued → running → done | failed``; entries answered
from the result cache, the journal or a memoized memory profile are
born ``done``.  Every field a
client can act on is exposed through :meth:`JobEntry.status_dict`,
which is exactly what ``GET /jobs/<id>`` returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.results import RunResult
from repro.runner.jobs import SimJob

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"

STATUSES = (STATUS_QUEUED, STATUS_RUNNING, STATUS_DONE, STATUS_FAILED)

#: Where a finished entry's result came from.  ``simulated`` went
#: through the worker pool; ``cache``/``journal`` were answered at
#: submit time; ``retimed`` was priced from a memoized memory profile,
#: at submit time or once its batch's replay of the same cache
#: geometry returned; ``recovered`` marks a job re-queued from the journal's
#: accept records after a restart (it becomes ``simulated`` once run).
SOURCE_RECOVERED = "recovered"


@dataclass
class JobEntry:
    """One distinct job travelling through the service."""

    job: SimJob
    job_hash: str
    engine: str = ""
    status: str = STATUS_QUEUED
    source: str = ""
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Worker attempts consumed (0 until the supervisor reports).
    attempts: int = 0
    #: How many times this hash has been submitted (dedup accounting).
    submissions: int = 1
    #: Worker-side simulation seconds (0 for cache/journal answers).
    seconds: float = 0.0
    result: Optional[RunResult] = None
    failure: Optional[dict] = None
    #: True when the entry was re-queued from journal accept records.
    recovered: bool = False

    @property
    def finished(self) -> bool:
        return self.status in (STATUS_DONE, STATUS_FAILED)

    def mark_running(self) -> None:
        self.status = STATUS_RUNNING
        self.started_at = time.time()

    def mark_done(self, result: RunResult, source: str,
                  seconds: float = 0.0, attempts: int = 0) -> None:
        self.status = STATUS_DONE
        self.result = result
        self.source = source
        self.seconds = seconds
        if attempts:
            self.attempts = attempts
        self.finished_at = time.time()

    def mark_failed(self, failure: dict, attempts: int = 0) -> None:
        self.status = STATUS_FAILED
        self.failure = dict(failure)
        if attempts:
            self.attempts = attempts
        self.finished_at = time.time()

    def status_dict(self) -> dict:
        """The client-facing status payload (``GET /jobs/<id>``)."""
        payload = {
            "id": self.job_hash,
            "label": self.job.label,
            "status": self.status,
            "engine": self.engine,
            "submissions": self.submissions,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            payload["started_at"] = self.started_at
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
        if self.finished:
            payload["source"] = self.source
            payload["seconds"] = round(self.seconds, 6)
            payload["attempts"] = self.attempts
        if self.failure is not None:
            payload["failure"] = dict(self.failure)
        if self.recovered:
            payload["recovered"] = True
        return payload

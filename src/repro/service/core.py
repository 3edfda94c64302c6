"""The always-on job service: queue, dedup, cache, journal, workers.

:class:`JobService` is the transport-agnostic core behind the HTTP API
(:mod:`repro.service.http`).  It promotes the campaign runner's batch
pipeline to a persistent server loop while reusing every piece of the
substrate unchanged:

* submissions land in a **bounded queue** (over capacity →
  :class:`~repro.integrity.errors.QueueFullError`, the backpressure
  signal the transport turns into a 503);
* the **content-addressed identity** of a job is its service id, so
  identical in-flight submissions deduplicate structurally — the
  second submitter attaches to the first's entry and no simulation
  runs twice;
* the :class:`~repro.runner.cache.ResultCache` and
  :class:`~repro.runner.journal.CampaignJournal` are consulted at
  submit time, so warm submissions complete synchronously in
  O(cache lookup) without ever touching the queue;
* the campaign runner's :class:`~repro.runner.memo.ProfileMemo` is
  consulted next: a job on an already-replayed cache geometry is
  retimed from its memory profile at submit time, journaled (but not
  cached), and born done (source ``retimed``), also without touching
  the queue;
* cold jobs are **journaled at acceptance** (an fsynced ``accept``
  record) and again at completion, so a SIGKILLed server restarted on
  the same journal serves finished jobs from it and re-queues the
  unfinished remainder — the resumed run's results are bit-identical
  to an uninterrupted one;
* a dispatcher thread drains the queue in batches into the existing
  :class:`~repro.runner.supervisor.SupervisedExecutor`, inheriting its
  crash-respawn, per-job timeout, bounded-retry, and checksum
  machinery unchanged.  Each batch plans against the memo like a
  campaign batch: one representative per profile key replays, and its
  profile retimes the rest.

Shutdown is graceful by default: :meth:`JobService.close` stops
accepting, drains the queue, the in-flight batch and any retime under
way, then tears the pool down — the SIGTERM path of ``repro-oltp serve``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.profile import MemoryProfile
from repro.core.results import RunResult
from repro.core.system import System
from repro.integrity.errors import (
    QueueFullError,
    ServiceUnavailableError,
)
from repro.obs import current_metrics, current_tracer
from repro.runner.cache import ResultCache
from repro.runner.jobs import SimJob
from repro.runner.journal import CampaignJournal
from repro.runner.memo import ProfileMemo, ReplayPlan, retime_job
from repro.runner.supervisor import RetryPolicy, SupervisedExecutor
from repro.runner.telemetry import (
    SOURCE_CACHE,
    SOURCE_JOURNAL,
    SOURCE_RETIMED,
    SOURCE_SIMULATED,
)
from repro.runner.tracestore import TraceStore, default_trace_store
from repro.service.state import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_QUEUED,
    STATUS_RUNNING,
    JobEntry,
)
from repro.version import version_info


@dataclass
class ServiceCounters:
    """Monotonic counters for one service lifetime."""

    submitted: int = 0       # every submission seen (incl. duplicates)
    accepted: int = 0        # distinct jobs enqueued for simulation
    dedup_hits: int = 0      # submissions attached to an existing entry
    cache_hits: int = 0      # entries answered from the result cache
    journal_hits: int = 0    # entries answered from the journal
    simulated: int = 0       # entries completed through the worker pool
    retimed: int = 0         # entries retimed from a memoized profile
    failed: int = 0          # entries that failed terminally
    rejected_full: int = 0   # submissions refused: queue at capacity
    rejected_draining: int = 0  # submissions refused: shutting down
    recovered: int = 0       # jobs re-queued from journal accept records

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "dedup_hits": self.dedup_hits,
            "cache_hits": self.cache_hits,
            "journal_hits": self.journal_hits,
            "simulated": self.simulated,
            "retimed": self.retimed,
            "failed": self.failed,
            "rejected_full": self.rejected_full,
            "rejected_draining": self.rejected_draining,
            "recovered": self.recovered,
        }


class JobService:
    """A long-running simulation job service over the campaign substrate.

    ``workers`` sizes the supervised pool; ``queue_limit`` bounds the
    number of distinct jobs waiting for a worker (running and finished
    entries do not count).  ``cache`` and ``journal`` are optional —
    without them every distinct submission simulates and nothing
    survives a restart.  Supervision knobs (``job_timeout``, ``retry``
    / ``max_retries``, ``max_respawns``) pass straight through to the
    :class:`~repro.runner.supervisor.SupervisedExecutor`, which archives
    each batch's traces for the workers (into a temporary directory
    removed on :meth:`close` when ``trace_store`` has no spill
    directory).

    Thread-safe: transports may call :meth:`submit` / :meth:`get` /
    :meth:`stats` from any number of threads.
    """

    def __init__(self, workers: int = 2,
                 cache: Optional[ResultCache] = None,
                 journal: Optional[CampaignJournal] = None,
                 trace_store: Optional[TraceStore] = None,
                 queue_limit: int = 1024,
                 job_timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 max_retries: Optional[int] = None,
                 max_respawns: int = 3,
                 batch_limit: Optional[int] = None):
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.workers = max(1, int(workers))
        self.cache = cache
        self.journal = journal
        self.trace_store = (trace_store if trace_store is not None
                            else default_trace_store())
        self.queue_limit = int(queue_limit)
        #: Jobs handed to the executor per dispatch cycle; bounded so a
        #: long batch cannot starve late submissions for its whole
        #: duration, large enough to keep every worker busy.
        self.batch_limit = (
            max(1, int(batch_limit)) if batch_limit else self.workers * 4
        )
        if retry is None:
            retry = RetryPolicy() if max_retries is None else RetryPolicy(
                max_retries=max_retries)
        elif max_retries is not None:
            raise ValueError("pass either retry or max_retries, not both")
        self._executor = SupervisedExecutor(
            self.workers, self.trace_store,
            job_timeout=job_timeout, retry=retry,
            max_respawns=max_respawns,
        )
        #: Profiles by profile key (guarded by ``_cv``).
        self._memo = ProfileMemo()
        self.counters = ServiceCounters()
        self.started_at = time.time()
        self._entries: Dict[str, JobEntry] = {}
        self._queue: Deque[str] = deque()
        self._cv = threading.Condition()
        self._running = 0          # jobs inside the current batch
        self._retiming = 0         # memo hits being retimed unlocked
        self._draining = False     # no new submissions
        self._shutdown = False     # dispatcher may exit once idle
        self._closed = False
        self._dispatcher: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "JobService":
        """Recover journaled work and start the dispatcher thread."""
        if self._dispatcher is not None:
            return self
        self._recover()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="service-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()
        return self

    def _recover(self) -> None:
        """Rebuild the job table from the journal's accept records.

        This is the restart half of the WAL contract: every job the
        previous process promised a client (fsynced accept record)
        reappears under the same content hash — finished ones born
        done from their journaled result, unfinished ones re-queued to
        simulate again — so clients polling across the restart see
        their job complete instead of a 404.
        """
        if self.journal is None:
            return
        metrics = current_metrics()
        retimes = []
        with self._cv:
            for job in self.journal.accepted_jobs():
                if job.content_hash() in self._entries:
                    continue  # submitted to this process before start()
                entry, profile = self._admit(job)
                entry.recovered = True
                if profile is not None:
                    retimes.append((entry, profile))
                elif not entry.finished:
                    self.counters.recovered += 1
                    metrics.count("service.recovered")
        for entry, profile in retimes:
            self._finish_retimed(entry, profile)

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Stop the service; returns True when fully drained.

        ``drain=True`` (the SIGTERM path) refuses new submissions,
        waits for the queue, the in-flight batch and any retime under
        way to finish (bounded by ``timeout`` seconds when given), then
        shuts the pool and journal down.  ``drain=False`` abandons
        queued jobs — they stay journaled as accepted, so a restart
        picks them up.
        """
        with self._cv:
            if self._closed:
                return True
            self._draining = True
            drained = True
            if drain:
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while self._queue or self._running or self._retiming:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            drained = False
                            break
                    self._cv.wait(
                        0.1 if remaining is None else min(0.1, remaining)
                    )
            else:
                drained = not (self._queue or self._running
                               or self._retiming)
            self._shutdown = True
            self._closed = True
            self._cv.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        self._executor.close()
        if self.journal is not None:
            self.journal.close()
        return drained

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ------------------------------------------------------------

    def submit(self, job: SimJob) -> JobEntry:
        """Accept one job; returns its (possibly pre-existing) entry.

        Warm paths complete before returning: a duplicate hash attaches
        to the existing entry, and a cache/journal hit or a job whose
        profile is memoized (retimed) is born done.
        Cold jobs are journaled as accepted, enqueued, and picked up by
        the dispatcher.  Raises
        :class:`~repro.integrity.errors.QueueFullError` when the
        bounded queue is at capacity and
        :class:`~repro.integrity.errors.ServiceUnavailableError` once
        draining has begun.
        """
        metrics = current_metrics()
        metrics.count("service.submitted")
        with self._cv:
            self.counters.submitted += 1
            job_hash = job.content_hash()
            entry = self._entries.get(job_hash)
            if entry is not None:
                entry.submissions += 1
                self.counters.dedup_hits += 1
                metrics.count("service.dedup_hits")
                return entry
            if self._draining:
                self.counters.rejected_draining += 1
                metrics.count("service.rejected")
                raise ServiceUnavailableError(
                    "service is draining; not accepting new jobs"
                )
            entry, profile = self._admit(job, job_hash)
        if profile is not None:
            self._finish_retimed(entry, profile)
        return entry

    def submit_many(self, jobs: Sequence[SimJob]) -> List[JobEntry]:
        """Submit a batch; entries come back in submission order."""
        return [self.submit(job) for job in jobs]

    def _admit(self, job: SimJob, job_hash: Optional[str] = None
               ) -> Tuple[JobEntry, Optional[MemoryProfile]]:
        """Create the entry for a first-seen hash (lock held by caller
        or single-threaded recovery).

        Returns the entry and, for a memo hit, the profile the caller
        retimes it from with :meth:`_finish_retimed` once it has let go
        of the lock; the entry is ``running`` until then.
        """
        metrics = current_metrics()
        job_hash = job_hash or job.content_hash()
        entry = JobEntry(
            job=job, job_hash=job_hash,
            engine=System.select_engine(job.machine, check=job.check),
        )
        known = self._lookup_known(job)
        if known is not None:
            result, source = known
            entry.mark_done(result, source)
            self._entries[job_hash] = entry
            return entry, None
        profile = self._memo.lookup(job)
        if profile is not None:
            entry.mark_running()
            self._entries[job_hash] = entry
            self._retiming += 1
            return entry, profile
        if len(self._queue) >= self.queue_limit:
            self.counters.rejected_full += 1
            metrics.count("service.rejected")
            raise QueueFullError(
                f"submission queue is full ({self.queue_limit} jobs)"
            )
        if self.journal is not None:
            self.journal.accept(job)
        self._entries[job_hash] = entry
        self._queue.append(job_hash)
        self.counters.accepted += 1
        metrics.count("service.accepted")
        self._cv.notify_all()
        return entry, None

    def _lookup_known(self, job: SimJob):
        """Journal-then-cache lookup, mirroring the campaign runner."""
        metrics = current_metrics()
        if self.journal is not None:
            result = self.journal.lookup(job)
            if result is not None:
                self.counters.journal_hits += 1
                metrics.count("service.journal_hits")
                return result, SOURCE_JOURNAL
        if self.cache is not None:
            result = self.cache.load(job)
            if result is not None:
                self.counters.cache_hits += 1
                metrics.count("service.cache_hits")
                return result, SOURCE_CACHE
        return None

    # -- queries ---------------------------------------------------------------

    def get(self, job_hash: str) -> Optional[JobEntry]:
        """The entry for a content hash, or ``None``."""
        with self._cv:
            return self._entries.get(job_hash)

    def wait(self, job_hash: str,
             timeout: Optional[float] = None) -> Optional[JobEntry]:
        """Block until the entry finishes (or ``timeout`` elapses)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while True:
                entry = self._entries.get(job_hash)
                if entry is None or entry.finished:
                    return entry
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return entry
                self._cv.wait(
                    0.25 if remaining is None else min(0.25, remaining)
                )

    def stats(self) -> dict:
        """The ``GET /stats`` payload: queue, utilization, substrate."""
        with self._cv:
            by_status = {s: 0 for s in
                         (STATUS_QUEUED, STATUS_RUNNING,
                          STATUS_DONE, STATUS_FAILED)}
            for entry in self._entries.values():
                by_status[entry.status] += 1
            running = self._running
            queue_depth = len(self._queue)
            counters = self.counters.to_dict()
        payload = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.workers,
            "queue_depth": queue_depth,
            "queue_limit": self.queue_limit,
            "running": running,
            "utilization": round(min(running, self.workers)
                                 / self.workers, 4),
            "draining": self._draining,
            "jobs": by_status,
            "counters": counters,
            "resilience": self._executor.stats.to_dict(),
        }
        if self.cache is not None:
            payload["cache"] = {
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "rejected": self.cache.stats.rejected,
                "hit_rate": round(self.cache.stats.hit_rate, 4),
            }
        if self.journal is not None:
            payload["journal"] = self.journal.stats.to_dict()
        metrics = current_metrics()
        if getattr(metrics, "enabled", False):
            payload["metrics"] = metrics.to_dict()
        return payload

    def health(self) -> dict:
        """The ``GET /healthz`` payload: liveness plus build identity."""
        return {
            "ok": True,
            "version": version_info(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "draining": self._draining,
        }

    # -- dispatch --------------------------------------------------------------

    def _take_batch(self) -> Optional[List[JobEntry]]:
        """Next batch of queued entries; ``None`` means exit."""
        with self._cv:
            while not self._queue and not self._shutdown:
                self._cv.wait(0.1)
            if self._shutdown:
                # On a graceful drain the queue is already empty here;
                # on drain=False the remainder stays journaled as
                # accepted, so a restart picks it up.
                return None
            take = min(len(self._queue), self.batch_limit)
            batch = []
            for _ in range(take):
                entry = self._entries[self._queue.popleft()]
                entry.mark_running()
                batch.append(entry)
            self._running = len(batch)
            return batch

    def _dispatch_loop(self) -> None:
        tracer = current_tracer()
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            t0 = time.perf_counter()
            try:
                self._run_batch(batch)
            except Exception as exc:  # defensive: never kill the loop
                with self._cv:
                    for entry in batch:
                        if not entry.finished:
                            entry.mark_failed({
                                "kind": "error",
                                "message": (
                                    f"dispatch failed: "
                                    f"{type(exc).__name__}: {exc}"
                                ),
                                "attempts": entry.attempts,
                            })
                            self.counters.failed += 1
            with self._cv:
                self._running = 0
                self._cv.notify_all()
            if tracer.enabled:
                tracer.add_span(
                    "service.batch", t0, time.perf_counter() - t0,
                    jobs=len(batch),
                )

    def _run_batch(self, batch: List[JobEntry]) -> None:
        """Plan ``batch`` against the memo, as the campaign runner plans
        its batches: memo hits retime at once, one representative per
        profile key replays in the pool and its profile retimes the
        rest, and the siblings of a representative that fails replay
        on their own."""
        with self._cv:
            plan = self._memo.plan([entry.job for entry in batch])
            self._retiming += len(plan.retimed)
        for i, profile in plan.retimed:
            self._finish_retimed(batch[i], profile)
        self._replay(batch, plan.replays, plan)
        self._replay(batch, plan.leftover, plan)

    def _replay(self, batch: List[JobEntry], indices: List[int],
                plan: ReplayPlan) -> None:
        """Replay ``batch[i]`` for each of ``indices`` in the pool."""
        if not indices:
            return
        index_of = {batch[i].job_hash: i for i in indices}
        jobs = [batch[i].job for i in indices]

        def on_result(job: SimJob, result: RunResult, seconds: float,
                      obs, profile) -> None:
            self._on_result(job, result, seconds, obs)
            with self._cv:
                siblings = plan.replayed(index_of[job.content_hash()],
                                         profile)
                self._retiming += len(siblings)
            for sib in siblings:
                self._finish_retimed(batch[sib], profile)

        outcomes = self._executor.run(
            jobs, with_obs=current_tracer().enabled, on_result=on_result)
        metrics = current_metrics()
        with self._cv:
            for outcome in outcomes:
                i = index_of[outcome.job.content_hash()]
                if outcome.failure is not None:
                    batch[i].mark_failed(outcome.failure.to_dict(),
                                         attempts=outcome.attempts)
                    self.counters.failed += 1
                    metrics.count("service.failed")
                    plan.failed(i)
                else:
                    batch[i].attempts = outcome.attempts

    def _on_result(self, job: SimJob, result: RunResult,
                   seconds: float, obs) -> None:
        """Executor completion callback: persist, then publish.

        Persisting first preserves the campaign invariant — once a
        client can observe ``done``, a kill cannot un-finish the job.
        """
        if obs is not None:
            current_tracer().absorb(obs["spans"])
            current_metrics().absorb(obs["metrics"])
        if self.cache is not None:
            self.cache.store(job, result)
        with self._cv:
            if self.journal is not None:
                self.journal.append(job, result)
            entry = self._entries[job.content_hash()]
            entry.mark_done(result, SOURCE_SIMULATED, seconds=seconds)
            self.counters.simulated += 1
            self._cv.notify_all()
        current_metrics().count("service.simulated")
        current_metrics().count("service.sim_seconds", seconds)

    def _finish_retimed(self, entry: JobEntry,
                        profile: MemoryProfile) -> None:
        """Retime ``entry`` from a memoized profile, journal it, then
        publish it done; a retime that raises fails the entry.

        Called without the lock, so that other requests do not wait on
        the retime.  Unlike a replayed result, a retimed one is not
        written to the result cache: the write (JSON encoding and an
        fsync) costs several times the retime, and nothing reads it
        back — the job table answers a resubmission, and the journal
        carries the result across a restart.
        """
        start = time.perf_counter()
        try:
            result = retime_job(entry.job, profile)
        except Exception as exc:
            with self._cv:
                entry.mark_failed({
                    "kind": "error",
                    "message": f"retime failed: {type(exc).__name__}: {exc}",
                    "attempts": 0,
                })
                self._retiming -= 1
                self.counters.failed += 1
                self._cv.notify_all()
            current_metrics().count("service.failed")
            return
        with self._cv:
            self._retiming -= 1
            if self.journal is not None:
                self.journal.append(entry.job, result)
            entry.mark_done(result, SOURCE_RETIMED,
                            seconds=time.perf_counter() - start)
            self.counters.retimed += 1
            self._cv.notify_all()
        current_metrics().count("service.retimed")

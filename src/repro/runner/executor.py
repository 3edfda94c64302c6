"""The campaign executor: cache-first, supervised, order-preserving.

:class:`CampaignRunner` turns a list of :class:`~repro.runner.jobs.SimJob`
into a list of :class:`~repro.core.results.RunResult` with these
guarantees:

* **Determinism** — results come back in job order regardless of
  worker completion order, and a result that travelled through a
  worker (or the cache, or the journal) is value-identical to one
  simulated inline: the JSON round trip is exact, so parallel output
  is bit-identical to serial.
* **Cache first** — with a :class:`~repro.runner.cache.ResultCache`
  attached, unchanged points are never re-simulated; corrupt entries
  silently demote to misses.  With a
  :class:`~repro.runner.journal.CampaignJournal` attached, completed
  jobs survive SIGINT/SIGKILL and are served on resume.
* **One replay per cache geometry** — pending jobs plan against the
  runner's :class:`~repro.runner.memo.ProfileMemo`: one representative
  per :func:`~repro.core.profile.profile_key` replays (returning its
  :class:`~repro.core.profile.MemoryProfile`) and the parent retimes
  the rest, and any later job on a memoized profile, bit-identically.
* **Trace sharing** — the supervised pool archives every distinct
  :class:`~repro.runner.tracestore.TraceSpec` once before a batch and
  workers load it through the same
  :class:`~repro.runner.tracestore.TraceStore` code path the inline
  path uses, instead of pickling multi-megabyte traces per job (see
  :class:`~repro.runner.supervisor.SupervisedExecutor`).
* **One batch for many figures** — :meth:`CampaignRunner.run_batch`
  takes named requests (normally figures), concatenates their jobs in
  request order and runs them as one batch, so the workers never idle
  at a figure boundary.  A job shared by two requests is credited to
  the earlier one.
* **Fault tolerance** — parallel batches run through a
  :class:`~repro.runner.supervisor.SupervisedExecutor`: crashed or
  hung workers are respawned and their in-flight jobs re-queued,
  transient errors retry with backoff, and a job that fails terminally
  surfaces as a structured
  :class:`~repro.integrity.errors.CampaignJobError` *after* every
  successful result of the batch has been persisted.  In process, a
  simulation error fails its own job the same way.  In a batch, each
  request's error carries only the failures of its own jobs, and a pool
  that dies too often gives each set of figures sharing jobs a fresh
  respawn budget, so a job that kills its workers fails no figure that
  does not need it.

Figures declare their jobs up front: ``run_campaign`` hands every
figure's jobs to a runner as one batch, and every other path runs
them inline through :func:`run_simulations`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import IO, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.profile import MemoryProfile
from repro.core.results import RunResult
from repro.core.system import System
from repro.integrity.errors import CampaignJobError, ReproError
from repro.obs import current_metrics, current_tracer
from repro.runner.cache import ResultCache
from repro.runner.jobs import SimJob
from repro.runner.journal import CampaignJournal
from repro.runner.memo import ProfileMemo, retime_job
from repro.runner.supervisor import (
    FAILURE_ERROR,
    JobFailed,
    JobFailure,
    RetryPolicy,
    SupervisedExecutor,
    simulate_job,
)
from repro.runner.telemetry import (
    SOURCE_CACHE,
    SOURCE_JOURNAL,
    SOURCE_RETIMED,
    SOURCE_SIMULATED,
    CampaignTelemetry,
    NullProgress,
    ProgressPrinter,
)
from repro.runner.tracestore import TraceStore, default_trace_store

__all__ = [
    "CampaignRunner",
    "JobFailed",
    "run_simulations",
]


class CampaignRunner:
    """Executes job batches against a supervised pool and a result cache.

    ``jobs`` is the worker count (1 = in-process serial, still
    cache-aware).  ``cache`` is optional; without it every job
    simulates.  ``journal`` is an optional
    :class:`~repro.runner.journal.CampaignJournal`: completed jobs are
    checkpointed into it and served from it first, making campaigns
    resumable.  ``trace_store`` defaults to the process-wide store.
    ``progress`` streams per-job lines to ``stream`` (stderr).

    Supervision knobs (parallel batches): ``job_timeout`` is the
    per-job wall-clock deadline in seconds (``None`` = unbounded),
    ``retry`` the :class:`~repro.runner.supervisor.RetryPolicy`
    (``max_retries`` is a shorthand overriding just its retry count),
    and ``chaos`` an optional ``(fault_plans, token_dir)`` pair arming
    the chaos harness in every worker.  Workers load each trace from
    its archive; with no spill directory on the store, the archive is
    a temporary directory that :meth:`close` removes.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 trace_store: Optional[TraceStore] = None,
                 progress: bool = False, stream: Optional[IO[str]] = None,
                 journal: Optional[CampaignJournal] = None,
                 job_timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 max_respawns: int = 3,
                 chaos=None):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.journal = journal
        self.trace_store = (trace_store if trace_store is not None
                            else default_trace_store())
        self.telemetry = CampaignTelemetry(workers=self.jobs)
        if retry is None:
            retry = RetryPolicy() if max_retries is None else RetryPolicy(
                max_retries=max_retries)
        elif max_retries is not None:
            raise ValueError("pass either retry or max_retries, not both")
        self.retry = retry
        self.job_timeout = job_timeout
        self.max_respawns = max_respawns
        self.chaos = chaos
        self._progress = (
            ProgressPrinter(self.telemetry, stream) if progress
            else NullProgress()
        )
        self._supervisor: Optional[SupervisedExecutor] = None
        #: Kept across batches: a later job on an already-replayed
        #: cache geometry is retimed.
        self._memo = ProfileMemo()

    # -- lifecycle -------------------------------------------------------------

    def _ensure_supervisor(self) -> SupervisedExecutor:
        if self._supervisor is None:
            self._supervisor = SupervisedExecutor(
                self.jobs, self.trace_store,
                job_timeout=self.job_timeout,
                retry=self.retry,
                max_respawns=self.max_respawns,
                chaos=self.chaos,
                stats=self.telemetry.resilience,
            )
        return self._supervisor

    def close(self) -> None:
        """Shut the worker pool down and remove its temporary trace
        archive, if any (idempotent)."""
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -------------------------------------------------------------

    def run_jobs(self, jobs: Sequence[SimJob]) -> List[RunResult]:
        """Run every job; results are returned in submission order.

        Raises :class:`~repro.integrity.errors.CampaignJobError` if any
        job fails terminally — after every *successful* job of the
        batch has been recorded, cached, and journaled, so a retry of
        the batch repeats only the failures.
        """
        reply = self.run_batch([("", list(jobs))])[0]
        if isinstance(reply, CampaignJobError):
            raise reply
        return reply

    def run_batch(self, requests: Sequence[Tuple[str, List[SimJob]]]
                  ) -> List[object]:
        """Run every request's jobs as one batch.

        ``requests`` pairs a batch name (normally a figure) with its
        jobs; returns, per request, its results in job order or a
        :class:`~repro.integrity.errors.CampaignJobError` with the
        failures of its own jobs.  Jobs run in request order, and a
        job shared by two requests is credited to the earlier one.
        """
        batch_start = time.perf_counter()
        jobs = [job for _, batch in requests for job in batch]
        names = [name for name, batch in requests for _ in batch]
        tracer = current_tracer()
        results: List[Optional[RunResult]] = [None] * len(jobs)

        # Journal and cache pass first: serve every already-known
        # point, so the progress ETA can be told how many simulations
        # actually remain before any job line prints.
        served: List[tuple] = []  # (index, source)
        pending: List[int] = []
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            known = None
            source = SOURCE_JOURNAL
            if self.journal is not None:
                known = self.journal.lookup(job)
            if known is None and self.cache is not None:
                known = self.cache.load(job)
                source = SOURCE_CACHE
            if known is None:
                pending.append(i)
                continue
            results[i] = known
            if source == SOURCE_JOURNAL:
                current_metrics().count("campaign.journal_hits")
            if tracer.enabled:
                tracer.add_span(
                    "campaign.job", t0, time.perf_counter() - t0,
                    job=job.label, hash=job.content_hash(),
                    engine=System.select_engine(job.machine, check=job.check),
                    source=source,
                )
            served.append((i, source))

        # Plan the replays.  Duplicate pending points (equal hashes)
        # share one result, credited to the earliest; the distinct ones
        # plan against the memo.
        by_hash: Dict[str, List[int]] = {}
        for i in pending:
            by_hash.setdefault(jobs[i].content_hash(), []).append(i)
        plan = self._memo.plan(jobs, [group[0] for group in by_hash.values()])
        self._progress.start_batch(len(jobs), len(plan.replays))
        for i, source in served:
            self._record(jobs[i], names[i], 0.0, source)

        def settle(d: int, result: RunResult, seconds: float,
                   source: str) -> None:
            # Persist before anything else, so a kill after this
            # instant cannot lose the work.
            self._persist(jobs[d], result)
            self._record(jobs[d], names[d], seconds, source)
            for i in by_hash[jobs[d].content_hash()]:
                results[i] = result
                if i != d:  # hash-level duplicates are free, like cache hits
                    self._record(jobs[i], names[i], 0.0, SOURCE_CACHE)

        for d, profile in plan.retimed:
            settle(d, *self._retime(jobs[d], profile), SOURCE_RETIMED)

        def replayed(d: int, result: RunResult, seconds: float,
                     profile: MemoryProfile) -> None:
            settle(d, result, seconds, SOURCE_SIMULATED)
            for sib in plan.replayed(d, profile):
                settle(sib, *self._retime(jobs[sib], profile),
                       SOURCE_RETIMED)

        # A replay's supervisor group: the figures that need its result.
        need = {h: tuple(dict.fromkeys(names[i] for i in group))
                for h, group in by_hash.items()}
        failures = self._replay(jobs, plan.replays, replayed, need)
        for d, _ in failures:
            plan.failed(d)
        if plan.leftover:
            failures += self._replay(jobs, plan.leftover, replayed, need)
        failure_of = {i: failure for d, failure in failures
                      for i in by_hash[jobs[d].content_hash()]}
        if tracer.enabled:
            tracer.add_span(
                "campaign.batch", batch_start,
                time.perf_counter() - batch_start,
                figures=",".join(name for name, _ in requests),
                jobs=len(jobs), replays=len(plan.replays),
            )

        replies: List[object] = []
        start = 0
        for _, batch in requests:
            stop = start + len(batch)
            own: List[JobFailure] = []
            for i in range(start, stop):
                failure = failure_of.get(i)
                if failure is not None and failure not in own:
                    own.append(failure)
            replies.append(CampaignJobError(own) if own
                           else results[start:stop])
            start = stop
        return replies

    def _record(self, job: SimJob, batch: str, seconds: float,
                source: str) -> None:
        # Engine provenance: which replay path this configuration
        # resolves to.  Depends only on the machine and run options, so
        # it is equally meaningful for cached and simulated results.
        engine = System.select_engine(job.machine, check=job.check)
        rec = self.telemetry.record(
            job.label, batch, job.content_hash(), seconds, source, engine,
        )
        self._progress.job_done(rec)

    def _persist(self, job: SimJob, result: RunResult) -> None:
        """Checkpoint a fresh result into the cache and journal."""
        if self.cache is not None:
            self.cache.store(job, result)
        if self.journal is not None:
            self.journal.append(job, result)

    @staticmethod
    def _job_span(job: SimJob, source: str):
        """A ``campaign.job`` span for ``job`` (no-op when untraced)."""
        tracer = current_tracer()
        if not tracer.enabled:
            return nullcontext()
        return tracer.span("campaign.job", job=job.label,
                           hash=job.content_hash(),
                           engine=System.select_engine(job.machine,
                                                       check=job.check),
                           source=source)

    def _retime(self, job: SimJob,
                profile: MemoryProfile) -> Tuple[RunResult, float]:
        """Retime ``job`` from a sibling's profile; ``(result, seconds)``."""
        start = time.perf_counter()
        with self._job_span(job, SOURCE_RETIMED):
            result = retime_job(job, profile)
        current_metrics().count("campaign.retimed")
        return result, time.perf_counter() - start

    def _replay(self, jobs: Sequence[SimJob], indices: List[int],
                done: Callable, need: Dict[str, tuple]
                ) -> List[Tuple[int, JobFailure]]:
        """Replay ``jobs[i]`` for each of ``indices`` (distinct hashes),
        calling ``done(i, result, seconds, profile)`` as each finishes;
        returns the terminal failures.

        With workers, every replay runs in the pool, even a lone one:
        the parent then never holds a replay's working set.  Its
        supervisor group is the batch names ``need`` lists for its
        hash, so when the pool gives up, a job that kills its workers
        fails only alongside jobs the same figures need.  In process,
        a simulation error fails its job only, as a worker's would.
        """
        if not indices:
            return []
        if self.jobs > 1:
            return self._replay_parallel(jobs, indices, done, need)
        failures = []
        for i in indices:
            job = jobs[i]
            try:
                trace = self.trace_store.get(job.spec)
                start = time.perf_counter()
                with self._job_span(job, SOURCE_SIMULATED):
                    result, profile = simulate_job(job, trace)
            except ReproError as exc:
                self.telemetry.resilience.failures += 1
                current_metrics().count("campaign.failures")
                failures.append((i, JobFailure(
                    job.label, job.content_hash(), FAILURE_ERROR,
                    f"{job.label}: {type(exc).__name__}: {exc}", 1)))
                continue
            done(i, result, time.perf_counter() - start, profile)
        return failures

    def _replay_parallel(self, jobs: Sequence[SimJob], indices: List[int],
                         done: Callable, need: Dict[str, tuple]
                         ) -> List[Tuple[int, JobFailure]]:
        tracer = current_tracer()
        metrics = current_metrics()
        with_obs = tracer.enabled or metrics.enabled
        index_of = {jobs[i].content_hash(): i for i in indices}

        def on_result(job: SimJob, result: RunResult, seconds: float,
                      obs, profile: MemoryProfile) -> None:
            if obs is not None:
                tracer.absorb(obs["spans"])
                metrics.absorb(obs["metrics"])
            done(index_of[job.content_hash()], result, seconds, profile)

        outcomes = self._ensure_supervisor().run(
            [jobs[i] for i in indices], with_obs=with_obs,
            on_result=on_result,
            groups=[need[jobs[i].content_hash()] for i in indices])
        return [(index_of[outcome.job.content_hash()], outcome.failure)
                for outcome in outcomes if outcome.failure is not None]


def run_simulations(jobs: Sequence[SimJob]) -> List[RunResult]:
    """Run a batch of jobs inline, in this process.

    Each trace materializes through the process-wide store and
    simulates here, with no caching and no extra processes; the batch
    plans against a fresh :class:`~repro.runner.memo.ProfileMemo`, so
    one job per :func:`~repro.core.profile.profile_key` replays and the
    rest are retimed from its profile.
    """
    store = default_trace_store()
    plan = ProfileMemo().plan(jobs)
    results: List[Optional[RunResult]] = [None] * len(jobs)
    for i, profile in plan.retimed:
        results[i] = retime_job(jobs[i], profile)

    def replay(indices: List[int]) -> None:
        for i in indices:
            results[i], profile = simulate_job(jobs[i],
                                               store.get(jobs[i].spec))
            for sib in plan.replayed(i, profile):
                results[sib] = retime_job(jobs[sib], profile)

    replay(plan.replays)
    replay(plan.leftover)
    return results  # type: ignore[return-value]

"""The campaign executor: cache-first, supervised, order-preserving.

:class:`CampaignRunner` turns a list of :class:`~repro.runner.jobs.SimJob`
into a list of :class:`~repro.core.results.RunResult` with four
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
* **Trace sharing** — before forking, every distinct
  :class:`~repro.runner.tracestore.TraceSpec` is spilled to the trace
  archive once; workers reload it through the same
  :class:`~repro.runner.tracestore.TraceStore` code path the drivers
  use, instead of pickling multi-megabyte traces per job.
* **Fault tolerance** — parallel batches run through a
  :class:`~repro.runner.supervisor.SupervisedExecutor`: crashed or
  hung workers are respawned and their in-flight jobs re-queued,
  transient errors retry with backoff, and a job that fails terminally
  surfaces as a structured
  :class:`~repro.integrity.errors.CampaignJobError` *after* every
  successful result of the batch has been persisted.

The experiment drivers do not talk to a runner directly: they call
:func:`run_simulations`, which routes through the runner installed by
:func:`use_runner` (the ``campaign`` CLI verb) or falls back to inline
serial simulation — the historical behaviour — when none is active.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import IO, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.profile import MemoryProfile
from repro.core.results import RunResult
from repro.core.system import System
from repro.integrity.errors import CampaignJobError
from repro.obs import current_metrics, current_tracer
from repro.runner.cache import ResultCache
from repro.runner.jobs import SimJob
from repro.runner.journal import CampaignJournal
from repro.runner.memo import ProfileMemo, retime_job
from repro.runner.supervisor import (
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
    "active_runner",
    "run_simulations",
    "simulate_spec",
    "use_profile_memo",
    "use_runner",
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
    the chaos harness in every worker.

    ``shared_memory`` (default on) publishes each distinct workload
    into a :class:`~repro.runner.shm.SharedTraceArena` segment before
    a parallel batch, so all workers replay one mapping instead of N
    per-worker archive loads; a failed publish falls back to the
    archive path for that workload, never the whole batch.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 trace_store: Optional[TraceStore] = None,
                 progress: bool = False, stream: Optional[IO[str]] = None,
                 journal: Optional[CampaignJournal] = None,
                 job_timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 max_respawns: int = 3,
                 chaos=None,
                 shared_memory: bool = True):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.journal = journal
        self.trace_store = trace_store or default_trace_store()
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
        self._batch = ""
        self._supervisor: Optional[SupervisedExecutor] = None
        self.shared_memory = shared_memory
        self._arena = None
        #: Kept across batches: a later job on an already-replayed
        #: cache geometry is retimed.
        self._memo = ProfileMemo()

    # -- lifecycle -------------------------------------------------------------

    def begin_batch(self, name: str) -> None:
        """Tag subsequent jobs with ``name`` (normally a figure id)."""
        self._batch = name

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
        """Shut the worker pool down and unlink any shared segments
        (idempotent)."""
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None
        if self._arena is not None:
            # After the pool is gone, so no worker loses its mapping
            # mid-replay.
            self._arena.cleanup()
            self._arena = None

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
        jobs = list(jobs)
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
        # share one result; the distinct ones plan against the memo.
        by_hash: Dict[str, List[int]] = {}
        for i in pending:
            by_hash.setdefault(jobs[i].content_hash(), []).append(i)
        plan = self._memo.plan(jobs, [group[0] for group in by_hash.values()])
        self._progress.start_batch(self._batch, len(jobs), len(plan.replays))
        for i, source in served:
            self._record(jobs[i], 0.0, source)

        def settle(d: int, result: RunResult, seconds: float,
                   source: str) -> None:
            # Persist before anything else, so a kill after this
            # instant cannot lose the work.
            self._persist(jobs[d], result)
            self._record(jobs[d], seconds, source)
            for i in by_hash[jobs[d].content_hash()]:
                results[i] = result
                if i != d:  # hash-level duplicates are free, like cache hits
                    self._record(jobs[i], 0.0, SOURCE_CACHE)

        for d, profile in plan.retimed:
            settle(d, *self._retime(jobs[d], profile), SOURCE_RETIMED)

        def replayed(d: int, result: RunResult, seconds: float,
                     profile: Optional[MemoryProfile]) -> None:
            settle(d, result, seconds, SOURCE_SIMULATED)
            for sib in plan.replayed(d, profile):
                settle(sib, *self._retime(jobs[sib], profile),
                       SOURCE_RETIMED)

        failures = []
        for d, failure in self._replay(jobs, plan.replays, replayed):
            failures.append(failure)
            plan.failed(d)
        if plan.leftover:
            failures += [failure for _, failure in
                         self._replay(jobs, plan.leftover, replayed)]
        if failures:
            raise CampaignJobError(failures)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _record(self, job: SimJob, seconds: float, source: str) -> None:
        # Engine provenance: which replay path this configuration
        # resolves to.  Depends only on the machine and run options, so
        # it is equally meaningful for cached and simulated results.
        engine = System.select_engine(job.machine, check=job.check)
        rec = self.telemetry.record(
            job.label, self._batch, job.content_hash(), seconds, source,
            engine,
        )
        self._progress.job_done(rec)

    def _persist(self, job: SimJob, result: RunResult) -> None:
        """Checkpoint a fresh result into the cache and journal."""
        if self.cache is not None:
            self.cache.store(job, result)
        if self.journal is not None:
            self.journal.append(job, result)

    def _retime(self, job: SimJob,
                profile: MemoryProfile) -> Tuple[RunResult, float]:
        """Retime ``job`` from a sibling's profile; ``(result, seconds)``."""
        tracer = current_tracer()
        start = time.perf_counter()
        if tracer.enabled:
            with tracer.span("campaign.job", job=job.label,
                             hash=job.content_hash(),
                             engine=System.select_engine(
                                 job.machine, check=job.check),
                             source=SOURCE_RETIMED):
                result = retime_job(job, profile)
        else:
            result = retime_job(job, profile)
        current_metrics().count("campaign.retimed")
        return result, time.perf_counter() - start

    def _replay(self, jobs: Sequence[SimJob], indices: List[int],
                done: Callable) -> List[Tuple[int, JobFailure]]:
        """Replay ``jobs[i]`` for each of ``indices`` (distinct hashes),
        calling ``done(i, result, seconds, profile)`` as each finishes;
        returns the terminal failures of a parallel batch.

        With workers, every replay runs in the pool, even a lone one:
        the parent then never holds a replay's working set.
        """
        if not indices:
            return []
        if self.jobs > 1:
            return self._replay_parallel(jobs, indices, done)
        tracer = current_tracer()
        for i in indices:
            job = jobs[i]
            trace = self.trace_store.get(job.spec)
            start = time.perf_counter()
            if tracer.enabled:
                with tracer.span("campaign.job", job=job.label,
                                 hash=job.content_hash(),
                                 engine=System.select_engine(
                                     job.machine, check=job.check),
                                 source=SOURCE_SIMULATED):
                    result, profile = simulate_job(job, trace)
            else:
                result, profile = simulate_job(job, trace)
            done(i, result, time.perf_counter() - start, profile)
        return []

    def _publish_shared(self, specs) -> Optional[dict]:
        """Map each spec to a shared-memory handle (best effort).

        A spec whose publish fails (e.g. ``/dev/shm`` exhausted) is
        simply absent from the map: its jobs take the per-worker
        archive path instead.
        """
        if not self.shared_memory:
            return None
        if self._arena is None:
            from repro.runner.shm import SharedTraceArena

            self._arena = SharedTraceArena()
        handles = {}
        for spec in specs:
            try:
                handles[spec] = self._arena.publish(spec, self.trace_store)
            except Exception:
                current_metrics().count("campaign.shm_fallbacks")
        return handles or None

    def _replay_parallel(self, jobs: Sequence[SimJob], indices: List[int],
                         done: Callable) -> List[Tuple[int, JobFailure]]:
        # Materialize each distinct workload into the shared archive
        # once, so no worker pays for trace generation.  The archive
        # stays the durable fallback even when the same workloads are
        # also published to shared memory below.
        distinct_specs = {jobs[i].spec for i in indices}
        if self.trace_store.spill_dir:
            for spec in distinct_specs:
                self.trace_store.ensure_archived(spec)
        shm_handles = self._publish_shared(distinct_specs)

        tracer = current_tracer()
        metrics = current_metrics()
        with_obs = tracer.enabled or metrics.enabled
        index_of = {jobs[i].content_hash(): i for i in indices}

        def on_result(job: SimJob, result: RunResult, seconds: float,
                      obs, profile: Optional[MemoryProfile]) -> None:
            if obs is not None:
                tracer.absorb(obs["spans"])
                metrics.absorb(obs["metrics"])
            done(index_of[job.content_hash()], result, seconds, profile)

        outcomes = self._ensure_supervisor().run(
            [jobs[i] for i in indices], with_obs=with_obs,
            on_result=on_result, shm_handles=shm_handles)
        return [(index_of[outcome.job.content_hash()], outcome.failure)
                for outcome in outcomes if outcome.failure is not None]


# -- the active runner (driver-facing indirection) -----------------------------

_ACTIVE: Optional[CampaignRunner] = None


def active_runner() -> Optional[CampaignRunner]:
    """The runner installed by :func:`use_runner`, if any."""
    return _ACTIVE


@contextmanager
def use_runner(runner: CampaignRunner):
    """Route :func:`run_simulations` through ``runner`` for the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = runner
    try:
        yield runner
    finally:
        _ACTIVE = previous


_INLINE_MEMO: Optional[ProfileMemo] = None


@contextmanager
def use_profile_memo():
    """Share one fresh profile memo across every inline
    :func:`run_simulations` batch in the block, so a later batch on an
    already-replayed cache geometry retimes instead of replaying.
    Outside such a block each inline batch plans against its own memo.
    """
    global _INLINE_MEMO
    previous = _INLINE_MEMO
    _INLINE_MEMO = ProfileMemo()
    try:
        yield _INLINE_MEMO
    finally:
        _INLINE_MEMO = previous


def run_simulations(jobs: Sequence[SimJob]) -> List[RunResult]:
    """Run a batch of jobs through the active runner.

    With no active runner this is the historical serial path: each
    trace materializes through the process-wide store and simulates
    inline, with no caching and no extra processes — except that the
    batch plans against a :class:`~repro.runner.memo.ProfileMemo`, so
    one job per :func:`~repro.core.profile.profile_key` replays and the
    rest are retimed from its profile.
    """
    runner = _ACTIVE
    if runner is not None:
        return runner.run_jobs(jobs)
    store = default_trace_store()
    memo = ProfileMemo() if _INLINE_MEMO is None else _INLINE_MEMO
    plan = memo.plan(jobs)
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


def simulate_spec(job: SimJob) -> RunResult:
    """Convenience wrapper: one job through the active runner."""
    return run_simulations([job])[0]

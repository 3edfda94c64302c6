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
* **Trace sharing** — before forking, every distinct
  :class:`~repro.runner.tracestore.TraceSpec` is spilled to the trace
  archive once (traces not yet built build side by side, one process
  each); workers reload it through the same
  :class:`~repro.runner.tracestore.TraceStore` code path the drivers
  use, instead of pickling multi-megabyte traces per job.
* **One batch per round** — :meth:`CampaignRunner.gather` runs many
  drivers (figures) at once, one at a time on their own threads; the
  jobs every waiting driver asked for run as one batch, concatenated
  in driver order, so the workers never idle at a figure boundary.
  Rounds run in order, and within a round a job shared by two figures
  is credited to the earlier one.
* **Fault tolerance** — parallel batches run through a
  :class:`~repro.runner.supervisor.SupervisedExecutor`: crashed or
  hung workers are respawned and their in-flight jobs re-queued,
  transient errors retry with backoff, and a job that fails terminally
  surfaces as a structured
  :class:`~repro.integrity.errors.CampaignJobError` *after* every
  successful result of the batch has been persisted.  In process, a
  simulation error fails its own job the same way.  In a round, each
  driver's error carries only the failures of its own jobs, and a pool
  that dies too often gives each set of figures sharing jobs a fresh
  respawn budget, so a job that kills its workers fails no figure that
  does not need it.

The experiment drivers do not talk to a runner directly: they call
:func:`run_simulations`, which routes through the runner installed by
:func:`use_runner` (the ``campaign`` CLI verb) or falls back to inline
serial simulation — the historical behaviour — when none is active.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
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
from repro.runner.tracestore import TraceSpec, TraceStore, default_trace_store

__all__ = [
    "CampaignRunner",
    "JobFailed",
    "active_runner",
    "run_simulations",
    "simulate_spec",
    "use_profile_memo",
    "use_runner",
]


class _Cancelled(BaseException):
    """Unwinds a gathered driver whose campaign was interrupted."""


class _Driver:
    """One :meth:`CampaignRunner.gather` driver and its hand-off slots.

    ``wake`` hands the driver the turn; ``parked`` (shared by every
    driver of one gather) hands it back when the driver blocks in
    :meth:`park` or finishes.
    """

    def __init__(self, name: str, parked: threading.Semaphore):
        self.name = name
        self.parked = parked
        self.wake = threading.Semaphore(0)
        #: Jobs waiting for the next round, and that round's reply.
        self.request: Optional[List[SimJob]] = None
        self.reply: object = None
        self.value: object = None
        self.error: Optional[BaseException] = None
        self.seconds = 0.0
        self.finished = False

    def park(self, jobs: List[SimJob]) -> object:
        """Queue ``jobs`` and block until a round replies."""
        self.request = jobs
        self.parked.release()
        self.wake.acquire()
        reply, self.reply = self.reply, None
        return reply


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
        self.shared_memory = shared_memory
        self._arena = None
        #: Kept across batches: a later job on an already-replayed
        #: cache geometry is retimed.
        self._memo = ProfileMemo()
        #: ``driver``: the :class:`_Driver` a :meth:`gather` thread runs.
        self._local = threading.local()

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

        Called from a driver that :meth:`gather` runs, the jobs wait
        for the next round instead of running at once.
        """
        driver = getattr(self._local, "driver", None)
        if driver is not None:
            reply = driver.park(list(jobs))
        else:
            reply = self._run_round([("", list(jobs))])[0]
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def gather(self, names: Sequence[str], driver: Callable[[str], object]
               ) -> List[Tuple[object, Optional[BaseException], float]]:
        """Run ``driver(name)`` for every name, batching their jobs.

        Each driver runs on its own daemon thread, one at a time, until
        it finishes or blocks in :meth:`run_jobs`.  Once every driver
        has, the blocked drivers' jobs run as one round on this thread,
        concatenated in ``names`` order, and each driver resumes with
        its own slice of the results (or a
        :class:`~repro.integrity.errors.CampaignJobError` carrying only
        its own failures).  Returns ``(value, error, seconds)`` per
        name: what the driver returned or raised, and its elapsed
        time.  Elapsed times overlap, since drivers wait on shared
        rounds.

        Only one thread runs at a time, so driver code needs no locks,
        and a round — including any fork of the worker pool — runs
        while every driver is parked on a semaphore, holding no lock.
        """
        parked = threading.Semaphore(0)
        drivers = [_Driver(name, parked) for name in names]

        def body(d: _Driver) -> None:
            self._local.driver = d
            d.wake.acquire()
            if isinstance(d.reply, _Cancelled):  # interrupted before it began
                return
            start = time.perf_counter()
            try:
                d.value = driver(d.name)
            except BaseException as exc:  # handed back to the caller
                d.error = exc
            d.seconds = time.perf_counter() - start
            d.finished = True
            parked.release()

        def resume(d: _Driver) -> None:
            d.wake.release()
            parked.acquire()

        started: List[_Driver] = []
        try:
            for d in drivers:
                threading.Thread(target=body, args=(d,), daemon=True,
                                 name=f"driver-{d.name}").start()
                started.append(d)
                resume(d)
            while True:
                waiting = [d for d in drivers if d.request is not None]
                if not waiting:
                    break
                requests = [(d.name, d.request) for d in waiting]
                try:
                    replies = self._run_round(requests)
                except ReproError as exc:
                    replies = [exc] * len(waiting)
                for d, reply in zip(waiting, replies):
                    d.request = None
                    d.reply = reply
                    resume(d)
        finally:
            # Interrupted: unblock every driver still alive; each
            # unwinds with _Cancelled at its next run_jobs.
            for d in started:
                if not d.finished:
                    d.reply = _Cancelled()
                    d.wake.release()
        return [(d.value, d.error, d.seconds) for d in drivers]

    def _run_round(self, requests: List[Tuple[str, List[SimJob]]]
                   ) -> List[object]:
        """Run every request's jobs as one batch.

        ``requests`` pairs a batch name (normally a figure) with its
        jobs; returns, per request, its results in job order or a
        :class:`~repro.integrity.errors.CampaignJobError` with the
        failures of its own jobs.
        """
        round_start = time.perf_counter()
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
                     profile: Optional[MemoryProfile]) -> None:
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
                "campaign.round", round_start,
                time.perf_counter() - round_start,
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

    def _archive_traces(self, specs) -> None:
        """Materialize each spec's workload into the shared archive, so
        no worker pays for trace generation.

        Traces neither in memory nor archived build at the same time,
        one process each (up to the worker count), instead of one after
        the other while the workers wait.  A build that fails there is
        retried in this process.
        """
        store = self.trace_store
        missing = [spec for spec in specs
                   if spec not in store and not store.is_archived(spec)]
        if len(missing) > 1:
            tracer = current_tracer()
            metrics = current_metrics()
            with_obs = tracer.enabled or metrics.enabled
            with ProcessPoolExecutor(min(self.jobs, len(missing))) as pool:
                futures = [pool.submit(_archive_trace, store.spill_dir,
                                       spec, with_obs)
                           for spec in missing]
                for future in futures:
                    try:
                        obs = future.result()
                    except Exception:
                        continue  # ensure_archived below builds it
                    if obs is not None:
                        tracer.absorb(obs["spans"])
                        metrics.absorb(obs["metrics"])
        for spec in specs:
            store.ensure_archived(spec)

    def _replay_parallel(self, jobs: Sequence[SimJob], indices: List[int],
                         done: Callable, need: Dict[str, tuple]
                         ) -> List[Tuple[int, JobFailure]]:
        # The archive stays the durable fallback even when the same
        # workloads are also published to shared memory below.
        distinct_specs = {jobs[i].spec for i in indices}
        if self.trace_store.spill_dir:
            self._archive_traces(distinct_specs)
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
            on_result=on_result, shm_handles=shm_handles,
            groups=[need[jobs[i].content_hash()] for i in indices])
        return [(index_of[outcome.job.content_hash()], outcome.failure)
                for outcome in outcomes if outcome.failure is not None]


def _archive_trace(spill_dir: str, spec: TraceSpec,
                   with_obs: bool) -> Optional[dict]:
    """Build ``spec``'s trace into the archive under ``spill_dir`` (in
    a process of its own); return the build's serialized spans and
    metrics when the parent observes, else ``None``."""
    store = TraceStore(spill_dir=spill_dir)
    if not with_obs:
        store.ensure_archived(spec)
        return None
    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

    tracer = Tracer(tid="builder")
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        store.ensure_archived(spec)
    return {"spans": tracer.to_dicts(), "metrics": registry.to_dict()}


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

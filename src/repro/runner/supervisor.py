"""Fault-tolerant job execution: the supervised worker pool.

:class:`SupervisedExecutor` replaces the bare ``ProcessPoolExecutor``
fan-out the campaign runner used to own.  It keeps the same worker
entry points (and the same value-identity contract: a result that
travelled through a worker is bit-identical to one simulated inline)
but survives the three ways a worker can betray a campaign:

* **Crash** — a worker dying (segfault, OOM-kill, ``os._exit``) breaks
  the whole ``ProcessPoolExecutor``.  The supervisor discards the
  broken pool, spawns a fresh one, and re-queues only the jobs that
  were in flight; completed results are never lost.
* **Hang** — every job carries an optional wall-clock deadline.  A job
  that blows its deadline is charged a timeout attempt, the pool is
  killed (the only way to reclaim a stuck worker) and respawned, and
  innocent in-flight jobs are re-queued without being charged.
* **Lies** — worker results cross the process boundary with a CRC-32
  over their canonical JSON; a corrupt payload is rejected and the job
  retried, exactly like a corrupt cache entry demotes to a miss.

Transient worker exceptions are retried with exponential backoff plus
seeded jitter (:class:`RetryPolicy`); deterministic simulation errors
(:class:`JobFailed`, i.e. a :class:`~repro.integrity.errors.ReproError`
raised by the engine) fail immediately — re-running them cannot help.
A job that exhausts its retries becomes a structured
:class:`JobFailure` inside its :class:`JobOutcome` instead of an
exception, so a campaign always completes with a per-job
success/failure report.

The chaos harness (:mod:`repro.integrity.faults`) injects worker-side
faults through the same entry points, and ``tests/runner/test_chaos.py``
asserts the supervisor recovers from every fault class with
value-identical results.
"""

from __future__ import annotations

import random
import time
import zlib
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.profile import MemoryProfile
from repro.core.results import RunResult
from repro.core.system import System
from repro.integrity.errors import ConfigError, ReproError
from repro.obs import current_metrics
from repro.runner.jobs import SimJob, canonical_json
from repro.runner.telemetry import SOURCE_SIMULATED, ResilienceStats

#: Failure kinds a :class:`JobFailure` can carry.
FAILURE_TIMEOUT = "timeout"
FAILURE_CRASH = "crash"
FAILURE_ERROR = "error"
FAILURE_CORRUPT = "corrupt-result"

#: Smallest poll interval of the supervision loop (seconds); bounds how
#: stale a deadline/backoff wakeup can be without busy-spinning.
_MIN_TICK = 0.01


class JobFailed(ReproError, RuntimeError):
    """A worker-side simulation failure, flattened to a picklable string.

    Raised in place of the original error because several
    :mod:`repro.integrity` exception types carry structured payloads
    that do not survive the pickle round trip out of a worker process.
    Deterministic by construction (the engine diagnosed the job
    itself), so the supervisor never retries it.
    """


# -- worker-process entry points (module level: must be picklable) -------------

def _worker_init(spill_dir: Optional[str], capacity: int,
                 fault_plans=None, fault_token_dir: Optional[str] = None
                 ) -> None:
    """Configure the worker's process-wide state at pool start.

    Points the trace store at the shared spill directory and, when the
    chaos harness is active, installs the worker-side fault injector.
    """
    from repro.runner.tracestore import default_trace_store

    store = default_trace_store()
    store.spill_dir = spill_dir
    store.capacity = max(capacity, store.capacity)
    if fault_plans:
        from repro.integrity.faults import install_worker_faults

        install_worker_faults(fault_plans, fault_token_dir)


def simulate_job(job: SimJob, trace
                 ) -> Tuple[RunResult, Optional[MemoryProfile]]:
    """Replay ``job`` on ``trace``; return the result and, when the
    machine produces one, its latency-free memory profile."""
    system = System(job.machine, check=job.check)
    return system.run(trace), system.profile


def _worker_run(job: SimJob, with_obs: bool = False, shm_handle=None):
    """Simulate one job; return ``(seconds, payload, crc32, obs)``.

    ``shm_handle`` (a :class:`~repro.runner.shm.SharedTraceHandle`)
    replays the job against the parent's shared-memory trace segment —
    one physical mapping per workload across all workers — instead of
    a per-worker archive load; without one, the trace resolves through
    the worker's :func:`default_trace_store` as before.

    Results cross the process boundary as :meth:`RunResult.to_dict`
    payloads — the exact representation the cache stores — so the
    parent reconstructs identical values either way.  The payload is
    ``{"result": ..., "profile": ...}``: the job's
    :class:`~repro.core.profile.MemoryProfile` rides along (``None``
    for machines without one) so the parent can retime siblings.
    ``crc32`` guards the payload's canonical JSON against corruption
    in flight; the supervisor re-verifies it before accepting it.

    When the parent has observability enabled (``with_obs``), the
    worker traces and meters the run locally and ships the serialized
    records back (``{"spans": [...], "metrics": {...}}``) for the
    parent to absorb; the worker's real ``pid`` rides along in each
    span, so stitched campaign traces show one process track per
    worker.  Otherwise the payload slot is ``None`` and the worker
    runs at zero observability cost.
    """
    from repro.integrity.faults import active_worker_injector
    from repro.runner.tracestore import default_trace_store

    injector = active_worker_injector()
    if injector is not None:
        injector.on_job_start()

    if shm_handle is not None:
        from repro.runner.shm import attach_shared_trace

        trace = attach_shared_trace(shm_handle)
    else:
        trace = default_trace_store().get(job.spec)
    if not with_obs:
        start = time.perf_counter()
        try:
            result, profile = simulate_job(job, trace)
        except ReproError as exc:
            raise JobFailed(
                f"{job.label}: {type(exc).__name__}: {exc}"
            ) from None
        seconds = time.perf_counter() - start
        return seconds, *_sealed(result, profile, injector), None

    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

    engine = System.select_engine(job.machine, check=job.check)
    tracer = Tracer(tid="worker")
    registry = MetricsRegistry()
    start = time.perf_counter()
    try:
        with use_tracer(tracer), use_metrics(registry):
            with tracer.span("campaign.job", job=job.label,
                             hash=job.content_hash(), engine=engine,
                             source=SOURCE_SIMULATED):
                result, profile = simulate_job(job, trace)
    except ReproError as exc:
        raise JobFailed(f"{job.label}: {type(exc).__name__}: {exc}") from None
    seconds = time.perf_counter() - start
    obs = {"spans": tracer.to_dicts(), "metrics": registry.to_dict()}
    payload, crc = _sealed(result, profile, injector)
    return seconds, payload, crc, obs


def _sealed(result: RunResult, profile: Optional[MemoryProfile],
            injector) -> Tuple[dict, int]:
    """Serialize ``result`` and ``profile`` with their integrity CRC
    (chaos may corrupt the payload *after* the CRC is taken — that is
    the point)."""
    payload = {
        "result": result.to_dict(),
        "profile": None if profile is None else profile.to_dict(),
    }
    crc = zlib.crc32(canonical_json(payload).encode())
    if injector is not None:
        payload = injector.corrupt_result(payload)
    return payload, crc


def payload_crc(payload: dict) -> int:
    """The CRC-32 the worker envelope carries for ``payload``."""
    return zlib.crc32(canonical_json(payload).encode())


# -- retry policy --------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``max_retries`` counts *re*-executions: a job runs at most
    ``max_retries + 1`` times.  The delay before retry ``n`` (1-based)
    is ``base_delay * multiplier**(n-1)``, capped at ``max_delay``,
    then stretched by up to ``jitter`` (a fraction) of itself so
    simultaneous retries do not stampede the pool in lockstep.  Jitter
    draws from the caller's seeded RNG, keeping campaigns reproducible.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("backoff delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ConfigError("jitter must be a fraction in [0, 1]")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.max_delay,
                   self.base_delay * self.multiplier ** (attempt - 1))
        return base * (1.0 + self.jitter * rng.random())


# -- outcomes ------------------------------------------------------------------

@dataclass(frozen=True)
class JobFailure:
    """One job's terminal failure: what, why, and how hard we tried."""

    label: str
    job_hash: str
    kind: str  # FAILURE_TIMEOUT / FAILURE_CRASH / FAILURE_ERROR / FAILURE_CORRUPT
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "job_hash": self.job_hash,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass
class JobOutcome:
    """What became of one supervised job: a result or a failure."""

    job: SimJob
    result: Optional[RunResult] = None
    seconds: float = 0.0
    attempts: int = 1
    failure: Optional[JobFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


# -- the supervisor ------------------------------------------------------------

class _Attempt:
    """Book-keeping for one job travelling through the supervisor."""

    __slots__ = ("job", "index", "attempts", "not_before")

    def __init__(self, job: SimJob, index: int):
        self.job = job
        self.index = index
        self.attempts = 0  # failed tries so far
        self.not_before = 0.0  # monotonic time before which not to resubmit


class SupervisedExecutor:
    """A self-healing worker pool executing :class:`SimJob` batches.

    ``workers`` is the pool size; at most ``workers`` jobs are in
    flight, so a job's wall-clock deadline starts when it actually
    reaches a worker, not when it enters the pool's internal queue.
    ``job_timeout`` (seconds, ``None`` = unbounded) is enforced by
    killing and respawning the pool — the only reclamation a hung
    worker allows.  ``max_respawns`` caps pool rebuilds per ``run``
    call so a worker that crashes on every job cannot loop forever;
    past the cap every unfinished job fails as ``crash`` (each group's
    on its own, when the run has several; see :meth:`run`).

    ``chaos`` is ``(fault_plans, token_dir)`` for the chaos harness
    (:mod:`repro.integrity.faults`); plans are installed in every
    worker generation, with filesystem tokens bounding total fires.

    ``stats`` (a shared :class:`ResilienceStats`) accumulates retry /
    timeout / respawn counters across batches; the same counts are
    mirrored into the active ``obs`` metrics registry under
    ``campaign.*`` names.
    """

    def __init__(self, workers: int, trace_store, *,
                 job_timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 max_respawns: int = 3,
                 chaos: Optional[Tuple[Sequence, Optional[str]]] = None,
                 stats: Optional[ResilienceStats] = None):
        self.workers = max(1, int(workers))
        self.trace_store = trace_store
        self.job_timeout = job_timeout
        self.retry = retry or RetryPolicy()
        self.max_respawns = max(0, int(max_respawns))
        self.chaos = chaos
        self.stats = stats if stats is not None else ResilienceStats()
        self._rng = random.Random(self.retry.seed)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._respawns_this_run = 0

    # -- pool lifecycle --------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        from repro.runner.tracestore import DEFAULT_CAPACITY

        plans, token_dir = self.chaos if self.chaos else (None, None)
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_init,
            initargs=(self.trace_store.spill_dir,
                      max(DEFAULT_CAPACITY, self.trace_store.capacity),
                      plans, token_dir),
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down even if a worker is wedged.

        ``shutdown(wait=True)`` would block behind a hung job, so the
        worker processes are terminated first (escalating to SIGKILL
        for anything that ignores SIGTERM), then the executor object is
        discarded without waiting.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for proc in procs:
            try:
                proc.join(max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
                    proc.join(1.0)
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -------------------------------------------------------------

    def run(self, jobs: Sequence[SimJob], with_obs: bool = False,
            on_result: Optional[Callable] = None,
            shm_handles: Optional[Dict] = None,
            groups: Optional[Sequence[Hashable]] = None) -> List[JobOutcome]:
        """Run every job to a terminal :class:`JobOutcome`.

        ``on_result(job, result, seconds, obs, profile)`` fires as
        each job *completes* (not in submission order), so the caller can
        persist results — cache, journal — the moment they exist;
        a kill after that instant can never lose the job.

        ``shm_handles`` maps a job's ``spec`` to a
        :class:`~repro.runner.shm.SharedTraceHandle`; matching jobs
        replay against the parent's shared mapping (surviving pool
        respawns — a fresh worker simply re-attaches), others fall
        back to per-worker trace loads.

        ``groups`` names each job's group (a campaign passes the
        figures that need the job).  When the pool dies more than
        ``max_respawns`` times in a run of several groups, the
        unfinished jobs do not fail there: each group's jobs run again
        on their own, with a fresh budget, so a group whose jobs kill
        their workers fails only its own jobs, as it would have alone.
        """
        jobs = list(jobs)
        isolate = groups is not None and len(set(groups)) > 1
        abandoned: List[_Attempt] = []
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        ready = deque(_Attempt(job, i) for i, job in enumerate(jobs))
        waiting: List[_Attempt] = []  # backoff queue
        inflight: Dict[object, Tuple[_Attempt, Optional[float]]] = {}
        self._respawns_this_run = 0
        metrics = current_metrics()

        def fail(attempt: _Attempt, kind: str, message: str) -> None:
            self.stats.failures += 1
            metrics.count("campaign.failures")
            outcomes[attempt.index] = JobOutcome(
                attempt.job, attempts=attempt.attempts,
                failure=JobFailure(attempt.job.label,
                                   attempt.job.content_hash(), kind,
                                   message, attempt.attempts),
            )

        def retry_or_fail(attempt: _Attempt, kind: str, message: str) -> None:
            """Charge the attempt and either back off or give up."""
            attempt.attempts += 1
            if attempt.attempts > self.retry.max_retries:
                fail(attempt, kind, message)
                return
            self.stats.retries += 1
            metrics.count("campaign.retries")
            attempt.not_before = (
                time.monotonic()
                + self.retry.delay(attempt.attempts, self._rng)
            )
            waiting.append(attempt)

        def requeue_inflight() -> None:
            """Put every in-flight job back at the head of the queue,
            uncharged — they were bystanders to a crash or a kill."""
            for attempt, _ in inflight.values():
                self.stats.requeued += 1
                metrics.count("campaign.requeued")
                ready.appendleft(attempt)
            inflight.clear()

        def respawn(reason: str) -> None:
            self._kill_pool()
            requeue_inflight()
            self._respawns_this_run += 1
            if self._respawns_this_run > self.max_respawns:
                # The pool is not survivable: fail everything left, or
                # leave it for one run per group.
                for queue in (ready, waiting):
                    while queue:
                        attempt = queue.pop()
                        if isolate:
                            abandoned.append(attempt)
                        else:
                            fail(attempt, FAILURE_CRASH,
                                 f"worker pool died "
                                 f"{self._respawns_this_run} times "
                                 f"({reason}); giving up")
                return
            self.stats.respawns += 1
            metrics.count("campaign.pool_respawns")

        while ready or waiting or inflight:
            now = time.monotonic()
            # Promote retries whose backoff has elapsed.
            due = [a for a in waiting if a.not_before <= now]
            for attempt in due:
                waiting.remove(attempt)
                ready.append(attempt)
            # Keep at most `workers` jobs in flight so deadlines track
            # actual execution, not time spent queued inside the pool.
            while ready and len(inflight) < self.workers:
                attempt = ready.popleft()
                try:
                    future = self._ensure_pool().submit(
                        _worker_run, attempt.job, with_obs,
                        shm_handles.get(attempt.job.spec)
                        if shm_handles else None)
                except BrokenProcessPool:
                    ready.appendleft(attempt)
                    self.stats.crashes += 1
                    metrics.count("campaign.worker_crashes")
                    respawn("submit on broken pool")
                    break
                deadline = (time.monotonic() + self.job_timeout
                            if self.job_timeout else None)
                inflight[future] = (attempt, deadline)
            if not inflight:
                if waiting:
                    pause = min(a.not_before for a in waiting) - time.monotonic()
                    time.sleep(max(_MIN_TICK, min(pause, 0.25)))
                continue

            done, _ = wait(set(inflight), timeout=self._tick(waiting, inflight),
                           return_when=FIRST_COMPLETED)
            pool_broke = False
            for future in done:
                attempt, _ = inflight.pop(future)
                try:
                    seconds, payload, crc, obs = future.result()
                except (BrokenProcessPool, BrokenPipeError, EOFError):
                    # The pool died under this job; the culprit is
                    # unknowable (every in-flight future breaks), so
                    # nobody is charged — the respawn cap bounds us.
                    pool_broke = True
                    self.stats.requeued += 1
                    metrics.count("campaign.requeued")
                    ready.appendleft(attempt)
                    continue
                except JobFailed as exc:
                    # Deterministic simulation error: retrying is futile.
                    attempt.attempts += 1
                    fail(attempt, FAILURE_ERROR, str(exc))
                    continue
                except Exception as exc:
                    retry_or_fail(attempt, FAILURE_ERROR,
                                  f"{type(exc).__name__}: {exc}")
                    continue
                if payload_crc(payload) != crc:
                    self.stats.corrupt_results += 1
                    metrics.count("campaign.corrupt_results")
                    retry_or_fail(attempt, FAILURE_CORRUPT,
                                  "worker result failed its checksum")
                    continue
                result = RunResult.from_dict(payload["result"])
                profile = (None if payload["profile"] is None
                           else MemoryProfile.from_dict(payload["profile"]))
                outcomes[attempt.index] = JobOutcome(
                    attempt.job, result=result, seconds=seconds,
                    attempts=attempt.attempts + 1)
                if on_result is not None:
                    on_result(attempt.job, result, seconds, obs, profile)
            if pool_broke:
                self.stats.crashes += 1
                metrics.count("campaign.worker_crashes")
                respawn("worker process died")
                continue

            # Deadline scan: charge expired jobs, then reclaim their
            # workers the only way possible — kill and respawn.
            now = time.monotonic()
            expired = [(future, attempt)
                       for future, (attempt, deadline) in inflight.items()
                       if deadline is not None and now >= deadline]
            if expired:
                for future, attempt in expired:
                    del inflight[future]
                    self.stats.timeouts += 1
                    metrics.count("campaign.timeouts")
                    retry_or_fail(
                        attempt, FAILURE_TIMEOUT,
                        f"no result within {self.job_timeout:.1f}s")
                respawn("job deadline expired")

        by_group: Dict[Hashable, List[_Attempt]] = {}
        for attempt in sorted(abandoned, key=lambda a: a.index):
            by_group.setdefault(groups[attempt.index], []).append(attempt)
        for group in by_group.values():
            rerun = self.run([a.job for a in group], with_obs=with_obs,
                             on_result=on_result, shm_handles=shm_handles)
            for attempt, outcome in zip(group, rerun):
                outcomes[attempt.index] = outcome
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _tick(self, waiting: List[_Attempt],
              inflight: Dict[object, Tuple[_Attempt, Optional[float]]]
              ) -> Optional[float]:
        """How long ``wait`` may block before the next scheduled event."""
        now = time.monotonic()
        horizons = [a.not_before - now for a in waiting]
        horizons += [deadline - now for _, deadline in inflight.values()
                     if deadline is not None]
        if not horizons:
            return None
        return max(_MIN_TICK, min(horizons))

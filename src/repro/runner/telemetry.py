"""Campaign telemetry: per-job timing, cache accounting, progress/ETA.

The runner records one :class:`JobRecord` per job (wall-clock seconds,
whether the result was simulated, retimed from a sibling's memory
profile, or served by the cache or journal, which batch — usually a
figure — it belonged to).  :class:`CampaignTelemetry`
aggregates them into the per-figure table and the one-line
machine-greppable summary the CLI prints::

    campaign summary: jobs=42 simulated=0 cache_hits=42 hit_rate=100% workers=4 wall=1.3s

CI greps ``simulated=0`` on a warm cache; the benchmark harness dumps
:meth:`CampaignTelemetry.to_dict` into ``BENCH_campaign.json``.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import IO, List, Optional, Sequence

SOURCE_CACHE = "cache"
SOURCE_SIMULATED = "simulated"
SOURCE_JOURNAL = "journal"
#: Computed in the parent from another job's memory profile
#: (:func:`repro.core.profile.retime`) instead of replaying the trace.
SOURCE_RETIMED = "retimed"

# -- terminal capability ------------------------------------------------------

#: Environment override: any non-empty value disables ANSI everywhere,
#: even on a TTY (service logs, CI steps that allocate a pty, ...).
NO_ANSI_ENV = "REPRO_NO_ANSI"

_RESET = "\x1b[0m"
_DIM = "\x1b[2m"
_GREEN = "\x1b[32m"
_CYAN = "\x1b[36m"
_BOLD = "\x1b[1m"


def ansi_enabled(stream) -> bool:
    """Whether ``stream`` should receive ANSI styling.

    True only for a real TTY with :data:`NO_ANSI_ENV` unset — pipes,
    files, service logs, and ``REPRO_NO_ANSI=1`` all get plain text,
    so redirected output never carries escape codes or carriage
    returns.
    """
    if os.environ.get(NO_ANSI_ENV):
        return False
    isatty = getattr(stream, "isatty", None)
    try:
        return bool(isatty and isatty())
    except (ValueError, OSError):  # closed or detached stream
        return False


def _style(text: str, code: str, enabled: bool) -> str:
    return f"{code}{text}{_RESET}" if enabled else text


@dataclass
class ResilienceStats:
    """Supervision counters for one campaign: what went wrong, and how
    the executor absorbed it.  Shared between the runner's telemetry
    and the :class:`~repro.runner.supervisor.SupervisedExecutor`; the
    same counts are mirrored into the ``obs`` metrics registry under
    ``campaign.*`` names."""

    #: Job re-executions scheduled after a transient failure.
    retries: int = 0
    #: Jobs that blew their wall-clock deadline.
    timeouts: int = 0
    #: Worker-pool breakages observed (dead worker processes).
    crashes: int = 0
    #: Pool rebuilds (after a crash or a deadline kill).
    respawns: int = 0
    #: In-flight bystander jobs re-queued, uncharged, by a respawn.
    requeued: int = 0
    #: Worker results rejected by the envelope checksum.
    corrupt_results: int = 0
    #: Jobs that exhausted every retry and failed terminally.
    failures: int = 0

    @property
    def eventful(self) -> bool:
        """True when any supervision event fired (worth a summary)."""
        return any((self.retries, self.timeouts, self.crashes,
                    self.respawns, self.requeued, self.corrupt_results,
                    self.failures))

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "requeued": self.requeued,
            "corrupt_results": self.corrupt_results,
            "failures": self.failures,
        }


@dataclass
class JobRecord:
    """One completed job: identity, provenance, and cost."""

    label: str
    batch: str
    job_hash: str
    seconds: float
    source: str  # one of the SOURCE_* constants
    #: Replay engine the job's configuration resolves to ("fast",
    #: "vectorized" or "vectorized-mp").  Provenance only:
    #: the engine is not part of the job's content hash, because all
    #: engines are value-identical and cached results stay valid
    #: across them.
    engine: str = ""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "batch": self.batch,
            "job_hash": self.job_hash,
            "seconds": round(self.seconds, 6),
            "source": self.source,
            "engine": self.engine,
        }


@dataclass
class CampaignTelemetry:
    """Aggregated accounting for one campaign run."""

    workers: int = 1
    records: List[JobRecord] = field(default_factory=list)
    started_at: float = field(default_factory=time.perf_counter)
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    # -- recording -------------------------------------------------------------

    def record(self, label: str, batch: str, job_hash: str, seconds: float,
               source: str, engine: str = "") -> JobRecord:
        rec = JobRecord(label, batch, job_hash, seconds, source, engine)
        self.records.append(rec)
        return rec

    # -- aggregates ------------------------------------------------------------

    @property
    def total_jobs(self) -> int:
        return len(self.records)

    @property
    def simulated(self) -> int:
        return sum(1 for r in self.records if r.source == SOURCE_SIMULATED)

    @property
    def retimed(self) -> int:
        """Jobs retimed from a sibling's memory profile (not replayed)."""
        return sum(1 for r in self.records if r.source == SOURCE_RETIMED)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.source == SOURCE_CACHE)

    @property
    def journal_hits(self) -> int:
        """Jobs served from the resume journal instead of simulating."""
        return sum(1 for r in self.records if r.source == SOURCE_JOURNAL)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total_jobs if self.total_jobs else 0.0

    @property
    def simulated_seconds(self) -> float:
        """Summed worker-side simulation time (> wall when parallel)."""
        return sum(r.seconds for r in self.records
                   if r.source == SOURCE_SIMULATED)

    @property
    def wall_seconds(self) -> float:
        return time.perf_counter() - self.started_at

    def mean_sim_seconds(self) -> float:
        n = self.simulated
        return self.simulated_seconds / n if n else 0.0

    # -- rendering -------------------------------------------------------------

    def summary_line(self) -> str:
        retimed = self.retimed
        line = (
            f"campaign summary: jobs={self.total_jobs} "
            f"simulated={self.simulated} "
            + (f"retimed={retimed} " if retimed else "")
            + f"cache_hits={self.cache_hits} "
            f"hit_rate={100 * self.hit_rate:.0f}% workers={self.workers} "
            f"wall={self.wall_seconds:.1f}s"
        )
        if self.journal_hits:
            line += f" journal_hits={self.journal_hits}"
        if self.resilience.eventful:
            r = self.resilience
            line += (
                f" retries={r.retries} timeouts={r.timeouts} "
                f"respawns={r.respawns} failures={r.failures}"
            )
        return line

    def render(self, names: Sequence[str], color: bool = False) -> str:
        """Per-batch table plus the summary line.

        One row per batch in ``names`` (normally the figures, in run
        order), so a batch that ran no jobs still shows.  Records are
        grouped by batch in one pass; the
        ``served`` column counts jobs answered without simulating
        (result cache, resume journal, hash-duplicates, or retimed
        from a sibling's memory profile); the
        ``engine`` column shows each batch's dominant replay engine
        (ties break alphabetically, ``-`` when no record names one).

        ``color`` opts into ANSI styling of the header and summary; it
        defaults to off and callers should gate it on
        :func:`ansi_enabled` so logs and pipes stay escape-free.
        """
        grouped: dict = {}
        for r in self.records:
            agg = grouped.get(r.batch)
            if agg is None:
                agg = grouped[r.batch] = {"jobs": 0, "sim": 0, "engines": {}}
            agg["jobs"] += 1
            if r.source == SOURCE_SIMULATED:
                agg["sim"] += 1
            if r.engine:
                engines = agg["engines"]
                engines[r.engine] = engines.get(r.engine, 0) + 1
        lines = [
            _style("campaign telemetry", _BOLD, color),
            _style(
                f"  {'batch':12s} {'jobs':>5s} {'sim':>5s} {'served':>6s} "
                f"{'engine':>13s}",
                _DIM, color,
            ),
        ]
        for name in names:
            agg = grouped.get(name, {"jobs": 0, "sim": 0, "engines": {}})
            engines = agg["engines"]
            dominant = (
                sorted(engines.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
                if engines else "-"
            )
            lines.append(
                f"  {name:12s} {agg['jobs']:5d} {agg['sim']:5d} "
                f"{agg['jobs'] - agg['sim']:6d} {dominant:>13s}"
            )
        lines.append(_style(self.summary_line(), _BOLD, color))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "jobs": self.total_jobs,
            "simulated": self.simulated,
            "retimed": self.retimed,
            "cache_hits": self.cache_hits,
            "journal_hits": self.journal_hits,
            "resilience": self.resilience.to_dict(),
            "hit_rate": round(self.hit_rate, 4),
            "simulated_seconds": round(self.simulated_seconds, 3),
            "wall_seconds": round(self.wall_seconds, 3),
            "records": [r.to_dict() for r in self.records],
        }


class ProgressPrinter:
    """Streams one line per finished job, with a running ETA.

    A batch is everything the runner runs at once: a campaign's one
    batch holds the jobs of every figure, so each line names its own
    job's figure and counts it against the whole batch.  The ETA
    extrapolates the mean simulated-job cost over the jobs
    still expected to *simulate* in the current batch, divided by the
    worker count.  The runner resolves its cache pass before the batch
    starts and passes ``expected_sim``, so jobs it already knows will
    be served from the cache (or deduplicated by hash) never inflate
    the estimate — a warm-cache batch shows no phantom ETA.
    """

    def __init__(self, telemetry: CampaignTelemetry,
                 stream: Optional[IO[str]] = None,
                 ansi: Optional[bool] = None):
        self.telemetry = telemetry
        self.stream = stream if stream is not None else sys.stderr
        #: ANSI styling: auto-detected from the stream (TTY only, see
        #: :func:`ansi_enabled`) unless forced by the caller.  Plain
        #: newline-terminated lines either way — non-TTY consumers
        #: (service logs, CI) never see escape codes.
        self.ansi = ansi_enabled(self.stream) if ansi is None else bool(ansi)
        self._total = 0
        self._done = 0
        self._expected_sim = 0
        self._sim_done = 0

    def start_batch(self, total_jobs: int,
                    expected_sim: Optional[int] = None) -> None:
        self._total = total_jobs
        self._done = 0
        self._expected_sim = (
            total_jobs if expected_sim is None else expected_sim
        )
        self._sim_done = 0

    def job_done(self, record: JobRecord) -> None:
        self._done += 1
        if record.source == SOURCE_SIMULATED:
            self._sim_done += 1
        remaining = max(0, self._total - self._done)
        remaining_sim = min(
            max(0, self._expected_sim - self._sim_done), remaining
        )
        eta = (remaining_sim * self.telemetry.mean_sim_seconds()
               / max(1, self.telemetry.workers))
        suffix = (
            _style(f" | eta {eta:.1f}s", _DIM, self.ansi)
            if remaining_sim and eta else ""
        )
        source = _style(
            record.source,
            _CYAN if record.source == SOURCE_SIMULATED else _GREEN,
            self.ansi,
        )
        counter = _style(
            f"[{record.batch} {self._done}/{self._total}]", _DIM, self.ansi
        )
        print(
            f"  {counter} "
            f"{record.label}: {record.seconds:.2f}s ({source}){suffix}",
            file=self.stream,
        )


class NullProgress:
    """Progress sink that discards everything (quiet mode, tests)."""

    def start_batch(self, total_jobs: int,
                    expected_sim: Optional[int] = None) -> None:
        pass

    def job_done(self, record: JobRecord) -> None:
        pass

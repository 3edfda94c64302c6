"""The ``repro-oltp campaign`` verb: every figure, parallel and cached.

A campaign installs a :class:`~repro.runner.CampaignRunner` as the
active runner and runs the ordinary figure drivers through it, all at
once: each round gathers every configuration the drivers are waiting
on into one batch, so the ``--jobs`` worker processes stay busy across
figures instead of draining at the end of each one.  Results land in
(or are served from) the content-addressed result cache, so the
second campaign over an unchanged tree runs **zero** simulations.

Cache layout under ``--cache-dir`` (default ``.repro-oltp-cache``)::

    <cache-dir>/traces/   versioned .npz workload archives
    <cache-dir>/results/  <job-hash>.json serialized RunResults

Invalidation is automatic: job hashes include the machine config, the
workload spec, the integrity-check level, the trace archive format
version, and :data:`repro.runner.CODE_VERSION` — bumping the latter
(any semantics-changing simulator edit) orphans every stale entry.
Deleting the directory is always safe; corrupt entries are detected by
checksum and silently re-simulated.

Campaigns are **resilient by default**: workers run under the
:class:`~repro.runner.SupervisedExecutor` (crash respawn, per-job
timeouts via ``--job-timeout``, bounded retry via ``--max-retries``),
a figure whose jobs fail terminally is reported and *skipped* while
every other figure, in its round or later, completes, and
``--resume <journal>`` makes the whole campaign checkpointed: completed
jobs are fsynced into an append-only journal and served from it after
a SIGINT/SIGKILL, with final output bit-identical to an uninterrupted
run.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import Settings
from repro.integrity.errors import CampaignJobError, ReproError
from repro.runner import (
    CacheStats,
    CampaignJournal,
    CampaignRunner,
    CampaignTelemetry,
    JournalStats,
    ResultCache,
    use_runner,
)
from repro.runner.tracestore import default_trace_store

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-oltp-cache"


def default_jobs() -> int:
    """Default worker count: up to 4, bounded by the machine."""
    return max(1, min(4, os.cpu_count() or 1))


@dataclass
class CampaignReport:
    """Every figure's rendered text plus the run's telemetry.

    ``failures`` maps a figure name to the structured per-job failure
    dicts that killed it; a campaign with failures still *completes*
    (the remaining figures run) and reports them here instead of
    raising.
    """

    figures: List[Tuple[str, str]] = field(default_factory=list)
    telemetry: Optional[CampaignTelemetry] = None
    cache_stats: Optional[CacheStats] = None
    journal_stats: Optional[JournalStats] = None
    failures: Dict[str, List[dict]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every figure completed with every job succeeding."""
        return not self.failures

    def render(self, color: bool = False) -> str:
        parts = [text for _, text in self.figures]
        if self.failures:
            lines = ["campaign failures"]
            for name, jobs in self.failures.items():
                for f in jobs:
                    lines.append(
                        f"  {name}: {f['label']} [{f['kind']} after "
                        f"{f['attempts']} attempts] {f['message']}"
                    )
            parts.append("\n".join(lines))
        if self.telemetry is not None:
            parts.append(self.telemetry.render(color=color))
        return "\n\n".join(parts)

    def failure_report(self) -> dict:
        """The machine-readable outcome payload (CI artifact)."""
        payload = {
            "ok": self.ok,
            "failures": self.failures,
            "figures_run": [name for name, _ in self.figures],
        }
        if self.telemetry is not None:
            payload["summary"] = self.telemetry.summary_line()
            payload["jobs"] = self.telemetry.total_jobs
            payload["simulated"] = self.telemetry.simulated
            payload["journal_hits"] = self.telemetry.journal_hits
            payload["resilience"] = self.telemetry.resilience.to_dict()
        if self.journal_stats is not None:
            payload["journal"] = self.journal_stats.to_dict()
        return payload


def run_campaign(
    figures: Sequence[str],
    settings: Settings,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    chart: bool = False,
    csv_dir: Optional[str] = None,
    progress: bool = True,
    stream: Optional[IO[str]] = None,
    resume: Optional[str] = None,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    chaos=None,
    failure_report: Optional[str] = None,
    shared_memory: bool = True,
) -> CampaignReport:
    """Run ``figures`` through a cache-backed, supervised runner.

    ``cache_dir=None`` disables both the result cache and the trace
    spill (everything stays in memory, nothing persists).  The
    process-wide trace store is pointed at the campaign's trace
    directory for the duration and restored afterwards.

    ``resume`` names the checkpoint journal: completed jobs recorded
    there are served without re-simulation, and every fresh completion
    is fsynced into it before the campaign moves on.  ``job_timeout`` /
    ``max_retries`` tune the supervisor; ``chaos`` arms the worker
    fault harness (tests, CI smoke).  ``failure_report`` writes the
    machine-readable outcome JSON there at the end of the run.
    ``shared_memory=False`` makes every worker load its own trace copy
    instead of attaching the parent's shared-memory view.

    Every figure driver runs at once, and the jobs they wait on run
    together, one batch per round (see
    :meth:`~repro.runner.CampaignRunner.gather`).  A figure whose jobs
    fail terminally (after retries) is recorded in ``report.failures``
    and skipped; the other figures, in its round and after, complete.
    The per-job report replaces the historical exception.
    """
    # Late import: cli imports this module at load time.
    from repro.experiments.cli import run_figure

    stream = stream if stream is not None else sys.stderr
    store = default_trace_store()
    previous_spill = store.spill_dir
    cache = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        store.spill_dir = os.path.join(cache_dir, "traces")
        if use_cache:
            cache = ResultCache(os.path.join(cache_dir, "results"))
    journal = CampaignJournal(resume) if resume else None
    runner = CampaignRunner(jobs=jobs, cache=cache, trace_store=store,
                            progress=progress, stream=stream,
                            journal=journal, job_timeout=job_timeout,
                            max_retries=max_retries, chaos=chaos,
                            shared_memory=shared_memory)
    report = CampaignReport(
        telemetry=runner.telemetry,
        cache_stats=cache.stats if cache else None,
        journal_stats=journal.stats if journal else None,
    )
    try:
        with use_runner(runner):
            outcomes = runner.gather(
                figures,
                lambda name: run_figure(name, settings, chart=chart,
                                        csv_dir=csv_dir),
            )
        for name, (text, exc, seconds) in zip(figures, outcomes):
            if isinstance(exc, CampaignJobError):
                report.failures[name] = [f.to_dict() for f in exc.failures]
            elif isinstance(exc, ReproError):
                # A driver-level error (bad config, invariant hit in
                # the driver): report it, keep the campaign.
                report.failures[name] = [{
                    "label": name, "job_hash": "",
                    "kind": "error", "message": str(exc), "attempts": 1,
                }]
            elif exc is not None:
                raise exc
            if exc is not None:
                text = f"[{name} FAILED: {exc}]"
                print(f"campaign: {name} failed: {exc}", file=stream)
            runner.telemetry.end_batch(name, seconds)
            report.figures.append((name, text))
    finally:
        runner.close()
        if journal is not None:
            journal.close()
        store.spill_dir = previous_spill
    if failure_report:
        parent = os.path.dirname(failure_report)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(failure_report, "w", encoding="utf-8") as fh:
            json.dump(report.failure_report(), fh, indent=2, sort_keys=True)
    return report

"""Campaign orchestration: supervised parallel runs over a result cache.

The runner decomposes every figure into independent, content-addressed
``(trace, machine, check)`` simulation jobs and executes them through a
cache-first, fault-tolerant multiprocess executor:

* :mod:`repro.runner.tracestore` — bounded trace cache + archive spill
* :mod:`repro.runner.jobs` — the job model and its content hash
* :mod:`repro.runner.cache` — the on-disk JSON result cache
* :mod:`repro.runner.journal` — the fsynced checkpoint/resume journal
* :mod:`repro.runner.supervisor` — the self-healing worker pool
  (timeouts, retry with backoff, crash isolation, chaos harness hooks)
* :mod:`repro.runner.memo` — the profile memo: retime instead of
  replaying, one replay per cache geometry
* :mod:`repro.runner.executor` — the runner and the inline path
* :mod:`repro.runner.telemetry` — per-job timing, cache accounting,
  resilience counters, ETA

See the README's "Campaign runner" and "Robustness" sections and
``repro-oltp campaign``.
"""

from repro.runner.cache import CACHE_FORMAT_VERSION, CacheStats, ResultCache
from repro.runner.executor import CampaignRunner, run_simulations
from repro.runner.jobs import CODE_VERSION, SimJob, canonical_json
from repro.runner.memo import PROFILE_MEMO_LIMIT, ProfileMemo
from repro.runner.journal import (
    JOURNAL_FORMAT_VERSION,
    CampaignJournal,
    JournalStats,
)
from repro.runner.supervisor import (
    JobFailed,
    JobFailure,
    JobOutcome,
    RetryPolicy,
    SupervisedExecutor,
)
from repro.runner.telemetry import (
    CampaignTelemetry,
    JobRecord,
    ResilienceStats,
)
from repro.runner.tracestore import (
    TraceSpec,
    TraceStore,
    default_trace_store,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CODE_VERSION",
    "JOURNAL_FORMAT_VERSION",
    "CacheStats",
    "CampaignJournal",
    "CampaignRunner",
    "CampaignTelemetry",
    "JobFailed",
    "JobFailure",
    "JobOutcome",
    "JobRecord",
    "JournalStats",
    "PROFILE_MEMO_LIMIT",
    "ProfileMemo",
    "ResilienceStats",
    "ResultCache",
    "RetryPolicy",
    "SimJob",
    "SupervisedExecutor",
    "TraceSpec",
    "TraceStore",
    "canonical_json",
    "default_trace_store",
    "run_simulations",
]

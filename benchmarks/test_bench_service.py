"""Service-mode throughput benchmark: warm submissions over HTTP.

Starts an in-process job service behind a real HTTP server, primes the
Figure 5 corpus (each job is computed exactly once), then drives ≥1000
warm submissions at concurrency 64 through the load generator.  Warm
submissions answer from the in-memory entry table, so this measures
the service's HTTP + dedup round-trip, not simulation.

Asserts warm throughput stays at or above ``BENCH_SERVICE_MIN_RPS``
(default 200 jobs/s) and dumps ``BENCH_service.json`` (override with
``BENCH_SERVICE_OUT``) with the latency distribution.
"""

from __future__ import annotations

import json
import os
import threading

from repro.experiments.common import Settings
from repro.runner.tracestore import TraceStore
from repro.service import JobService, ServiceHTTPServer, figure_jobs
from repro.service.loadgen import generate

OUT = os.environ.get("BENCH_SERVICE_OUT", "BENCH_service.json")
MIN_RPS = float(os.environ.get("BENCH_SERVICE_MIN_RPS", "200"))
REQUESTS = int(os.environ.get("BENCH_SERVICE_REQUESTS", "1000"))
CONCURRENCY = 64
WORKERS = 4

#: Small corpus sizes: priming is 8 quick replays and one retime (9
#: jobs over 8 cache geometries); the measured phase never simulates.
BENCH_SETTINGS = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)


def test_bench_warm_submission_throughput(tmp_path_factory):
    store = TraceStore(
        spill_dir=str(tmp_path_factory.mktemp("bench-service-traces")))
    service = JobService(workers=WORKERS, trace_store=store)
    service.start()
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        warm = figure_jobs(("fig5",), BENCH_SETTINGS)
        report = generate(
            f"http://127.0.0.1:{httpd.port}", warm, [],
            requests=REQUESTS, concurrency=CONCURRENCY,
            mix=(1, 0), poll_timeout=600.0, prime=True,
        )
    finally:
        httpd.shutdown()
        thread.join(timeout=10)
        httpd.server_close()
        service.close(drain=False)

    assert report["ok"], report
    assert report["transport_errors"] == 0
    done = report["phases"]["submit_done"]["warm"]
    assert done["count"] == REQUESTS
    throughput = report["throughput_jobs_per_sec"]

    payload = {
        "settings": "fig5 corpus, scale 256",
        "requests": REQUESTS,
        "concurrency": CONCURRENCY,
        "service_workers": WORKERS,
        "warm_corpus_jobs": len(warm),
        "cpu_count": os.cpu_count(),
        "elapsed_seconds": round(report["elapsed_seconds"], 4),
        "throughput_jobs_per_sec": round(throughput, 2),
        "submit_accept_p50_ms": round(
            report["phases"]["submit_accept"]["warm"]["p50"] * 1000, 3),
        "submit_done_p50_ms": round(done["p50"] * 1000, 3),
        "submit_done_p90_ms": round(done["p90"] * 1000, 3),
        "submit_done_p99_ms": round(done["p99"] * 1000, 3),
        "submit_done_max_ms": round(done["max"] * 1000, 3),
        "min_jobs_per_sec": MIN_RPS,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    assert throughput >= MIN_RPS, (
        f"warm throughput {throughput:.1f} jobs/s is below the "
        f"{MIN_RPS:.0f} jobs/s floor (p99 {done['p99'] * 1000:.1f} ms)"
    )

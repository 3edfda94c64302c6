"""The service's HTTP/JSON API — stdlib only, keep-alive, threaded.

Endpoints (all JSON in, JSON out)::

    POST /jobs            submit one job spec, a list, or {"jobs": [...]}
                          → 200 {"count": N, "jobs": [<status>, ...]}
    GET  /jobs/<id>       → 200 <status>           (404 unknown)
    GET  /jobs/<id>/result→ 200 {"id", "label", "result": <RunResult>}
                            409 not finished, 410 failed, 404 unknown
    GET  /healthz         → 200 {"ok", "version", "uptime_seconds"}
    GET  /stats           → 200 queue/worker/cache/journal/resilience

A job spec is the wire form of :class:`~repro.runner.jobs.SimJob`
(``{"trace": {...}, "machine": {...}, "check": "off"}``); the returned
``id`` is its content hash, so ids are stable across restarts and
identical submissions share one id.  A spec of the form
``{"scenario": "<name>", ...}`` expands server-side into the named
scenario's integration-ladder jobs (optional ``scale``/``txns``/
``seed``/``check`` keys size them).

The error taxonomy crosses the wire as
``{"error": {"type": <ReproError class>, "message": ...}}`` with the
HTTP status carrying the retry semantics: **400** for a malformed or
invalid spec (:class:`~repro.integrity.errors.ConfigError` — do not
retry), **503** for backpressure
(:class:`~repro.integrity.errors.QueueFullError`) or drain
(:class:`~repro.integrity.errors.ServiceUnavailableError` — retry
later), **500** for anything unexpected.

Transport: ``http.server.ThreadingHTTPServer`` (one thread per
connection, HTTP/1.1 keep-alive, explicit ``Content-Length`` on every
response) — no dependencies beyond the standard library.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Optional
from urllib.parse import urlsplit

from repro.integrity.errors import (
    ConfigError,
    QueueFullError,
    ReproError,
    ServiceUnavailableError,
)
from repro.obs import current_metrics, current_tracer
from repro.runner.jobs import SimJob
from repro.service.core import JobService
from repro.service.state import STATUS_DONE, STATUS_FAILED

#: Largest request body accepted (a 10k-job batch is ~8 MB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Largest number of job specs per POST.
MAX_BATCH_JOBS = 4096


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`JobService`."""

    daemon_threads = True
    # The default listen backlog (5) drops simultaneous connects from
    # a high-concurrency load generator on the floor, surfacing as
    # exactly-1 s SYN-retransmit latency spikes.
    request_queue_size = 256

    def __init__(self, address, service: JobService,
                 verbose: bool = False):
        self.service = service
        self.verbose = verbose
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-oltp-service"
    # Headers and body go out as separate small writes; without
    # TCP_NODELAY, Nagle + delayed ACK turns every response into a
    # ~40 ms stall on loopback.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        metrics = current_metrics()
        metrics.count("service.http.requests")
        metrics.count(f"service.http.{code // 100}xx")

    def _send_error_json(self, code: int, exc: BaseException) -> None:
        self._send_json(code, {
            "error": {"type": type(exc).__name__, "message": str(exc)},
        })

    def _traced(self, handler) -> None:
        tracer = current_tracer()
        if not tracer.enabled:
            return self._dispatch(handler)
        t0 = time.perf_counter()
        try:
            self._dispatch(handler)
        finally:
            tracer.add_span(
                "service.request", t0, time.perf_counter() - t0,
                method=self.command, path=self.path,
            )

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except BrokenPipeError:  # client went away mid-response
            self.close_connection = True
        except ConfigError as exc:
            self._send_error_json(400, exc)
        except (QueueFullError, ServiceUnavailableError) as exc:
            self._send_error_json(503, exc)
        except ReproError as exc:
            self._send_error_json(500, exc)
        except Exception as exc:  # never leak a traceback over the wire
            self._send_error_json(500, exc)

    # -- routes ----------------------------------------------------------------

    def do_POST(self) -> None:
        self._traced(self._post)

    def do_GET(self) -> None:
        self._traced(self._get)

    def _post(self) -> None:
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/jobs":
            self._send_json(404, {"error": {
                "type": "NotFound", "message": f"no such endpoint {path!r}",
            }})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise ConfigError("missing or invalid Content-Length") from None
        if length <= 0:
            raise ConfigError("POST /jobs needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise ConfigError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise ConfigError(f"request body is not JSON: {exc}") from None
        if isinstance(payload, dict) and "jobs" in payload:
            specs = payload["jobs"]
        elif isinstance(payload, list):
            specs = payload
        else:
            specs = [payload]
        if not isinstance(specs, list) or not specs:
            raise ConfigError("submit one job object or a non-empty list")
        if len(specs) > MAX_BATCH_JOBS:
            raise ConfigError(
                f"batch of {len(specs)} exceeds {MAX_BATCH_JOBS} jobs"
            )
        # Validate the whole batch before accepting any of it, so a 400
        # never leaves a partial submission behind.  A spec carrying a
        # "scenario" key expands server-side into that scenario's
        # ladder of ordinary jobs.
        from repro.scenario.registry import jobs_for_scenario_spec

        jobs = []
        for spec in specs:
            if isinstance(spec, dict) and "scenario" in spec:
                jobs.extend(jobs_for_scenario_spec(spec))
            else:
                jobs.append(SimJob.from_dict(spec))
        if len(jobs) > MAX_BATCH_JOBS:
            raise ConfigError(
                f"batch expands to {len(jobs)} jobs, exceeding "
                f"{MAX_BATCH_JOBS}"
            )
        entries = self.server.service.submit_many(jobs)
        self._send_json(200, {
            "count": len(entries),
            "jobs": [entry.status_dict() for entry in entries],
        })

    def _get(self) -> None:
        service = self.server.service
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/healthz":
            self._send_json(200, service.health())
            return
        if path == "/stats":
            self._send_json(200, service.stats())
            return
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "jobs" or len(parts) not in (2, 3):
            self._send_json(404, {"error": {
                "type": "NotFound", "message": f"no such endpoint {path!r}",
            }})
            return
        entry = service.get(parts[1])
        if entry is None:
            self._send_json(404, {"error": {
                "type": "UnknownJob",
                "message": f"no job with id {parts[1]!r}",
            }})
            return
        if len(parts) == 2:
            self._send_json(200, entry.status_dict())
            return
        if parts[2] != "result":
            self._send_json(404, {"error": {
                "type": "NotFound", "message": f"no such endpoint {path!r}",
            }})
            return
        if entry.status == STATUS_DONE:
            assert entry.result is not None
            self._send_json(200, {
                "id": entry.job_hash,
                "label": entry.job.label,
                "source": entry.source,
                "result": entry.result.to_dict(),
            })
        elif entry.status == STATUS_FAILED:
            self._send_json(410, {
                "id": entry.job_hash,
                "error": {
                    "type": "JobFailed",
                    "message": (entry.failure or {}).get(
                        "message", "job failed"),
                    **{k: v for k, v in (entry.failure or {}).items()
                       if k in ("kind", "attempts")},
                },
            })
        else:
            self._send_json(409, {
                "id": entry.job_hash,
                "status": entry.status,
                "error": {
                    "type": "NotFinished",
                    "message": f"job is {entry.status}; poll again",
                },
            })


def run_server(service: JobService, host: str = "127.0.0.1",
               port: int = 8077, *,
               drain_timeout: Optional[float] = 30.0,
               verbose: bool = False,
               stream: Optional[IO[str]] = None,
               stop_event: Optional[threading.Event] = None,
               install_signals: bool = True) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    Prints one machine-greppable line when the socket is bound
    (``service listening on http://host:port``) so wrappers can wait
    for readiness and discover an ephemeral ``--port 0``.  On the
    first SIGTERM or SIGINT the service stops accepting, finishes the
    queued and in-flight jobs (bounded by ``drain_timeout``), and the
    process exits 0 on a clean drain, 1 when the timeout forced it.
    """
    stream = stream if stream is not None else sys.stdout
    stop = stop_event or threading.Event()
    httpd = ServiceHTTPServer((host, port), service, verbose=verbose)
    service.start()

    if install_signals:
        def _request_stop(signum, frame):
            stop.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    serve_thread = threading.Thread(
        target=httpd.serve_forever, name="service-http", daemon=True,
        kwargs={"poll_interval": 0.1},
    )
    serve_thread.start()
    print(
        f"service listening on http://{host}:{httpd.port} "
        f"workers={service.workers} queue_limit={service.queue_limit}",
        file=stream, flush=True,
    )
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:  # pragma: no cover - signal handler path
        pass
    print("service draining (no new submissions)...", file=stream,
          flush=True)
    drained = service.close(drain=True, timeout=drain_timeout)
    httpd.shutdown()
    serve_thread.join(timeout=5.0)
    httpd.server_close()
    c = service.counters
    print(
        f"service summary: submitted={c.submitted} accepted={c.accepted} "
        f"simulated={c.simulated} retimed={c.retimed} "
        f"cache_hits={c.cache_hits} "
        f"journal_hits={c.journal_hits} dedup_hits={c.dedup_hits} "
        f"failed={c.failed} recovered={c.recovered} "
        f"drained={'yes' if drained else 'TIMEOUT'}",
        file=stream, flush=True,
    )
    return 0 if drained else 1

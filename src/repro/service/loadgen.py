"""Async load generator for the job service (``repro-oltp loadgen``).

Drives thousands of concurrent submissions against a running service
using only the standard library: each of ``concurrency`` workers holds
one persistent HTTP/1.1 keep-alive connection (``asyncio``'s
``open_connection``) and pulls submissions off a shared schedule, so
the client side imposes no artificial serialization.

A run has two phases:

1. **prime** (unmeasured) — the warm corpus is submitted once and
   driven to completion, so the measured phase's "warm" submissions
   genuinely dedup/cache-hit;
2. **measure** — a deterministic interleaving of warm repeats and
   fresh cold jobs (``mix`` sets the ratio) is pushed at full
   concurrency.  A cold job replays unless the service already holds
   the memory profile of its cache geometry, in which case it is
   retimed at submit time.  Every submission records two latencies:

   * ``submit_accept`` — POST round-trip until the service acknowledged
     (queued/done) the job;
   * ``submit_done`` — until polling ``GET /jobs/<id>`` observed a
     terminal state.

The report (:func:`render` for humans, JSON via ``--report``) gives
per-phase, per-class nearest-rank percentiles (p50/p90/p99/max),
overall throughput, and the full status-code histogram — the CI smoke
asserts every response was 2xx and that warm p99 stays under cold p50
(most cold jobs replay, so the cold median is a replay).
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.integrity.errors import ConfigError
from repro.runner.jobs import SimJob

#: Terminal statuses a poller stops on.
_TERMINAL = ("done", "failed")


def parse_mix(mix: str) -> Tuple[int, int]:
    """``"80:20"`` → ``(80, 20)`` (warm:cold weights)."""
    try:
        warm_s, _, cold_s = mix.partition(":")
        warm, cold = int(warm_s), int(cold_s)
    except ValueError:
        raise ConfigError(
            f"bad mix {mix!r}; expected WARM:COLD integers like 80:20"
        ) from None
    if warm < 0 or cold < 0 or warm + cold == 0:
        raise ConfigError(f"bad mix {mix!r}; weights must be >= 0, not both 0")
    return warm, cold


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, int(-(-q * len(ordered) // 100)))  # ceil, 1-based
    return ordered[min(rank, len(ordered)) - 1]


def summarize(samples: List[float]) -> dict:
    """p50/p90/p99/max/mean summary of a latency series (seconds)."""
    if not samples:
        return {"count": 0}
    return {
        "count": len(samples),
        "mean": round(sum(samples) / len(samples), 6),
        "p50": round(percentile(samples, 50), 6),
        "p90": round(percentile(samples, 90), 6),
        "p99": round(percentile(samples, 99), 6),
        "max": round(max(samples), 6),
    }


class LoadClient:
    """One persistent HTTP/1.1 connection speaking the service's JSON.

    Reconnects transparently (once per request) if the server closed
    the connection between requests.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:  # pragma: no cover - teardown race
                pass
        self._reader = self._writer = None

    async def request(self, method: str, path: str,
                      payload=None) -> Tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Connection: keep-alive\r\n"
        )
        if body:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        head += "\r\n"
        request = head.encode() + body
        for attempt in (0, 1):
            try:
                if self._writer is None:
                    await self._connect()
                assert self._reader is not None and self._writer is not None
                self._writer.write(request)
                await self._writer.drain()
                return await self._read_response()
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise
        raise ConnectionError("unreachable")  # pragma: no cover

    async def _read_response(self) -> Tuple[int, dict]:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self._reader.readexactly(length) if length else b""
        return status, (json.loads(data) if data else {})


@dataclass
class LoadStats:
    """Shared accumulator all workers write into."""

    accept: Dict[str, List[float]] = field(default_factory=dict)
    done: Dict[str, List[float]] = field(default_factory=dict)
    status_codes: Dict[int, int] = field(default_factory=dict)
    transport_errors: int = 0
    job_failures: int = 0

    def code(self, status: int) -> None:
        self.status_codes[status] = self.status_codes.get(status, 0) + 1

    def sample(self, kind: str, accept_s: float, done_s: float) -> None:
        self.accept.setdefault(kind, []).append(accept_s)
        self.done.setdefault(kind, []).append(done_s)

    @property
    def all_2xx(self) -> bool:
        return (
            self.transport_errors == 0
            and all(200 <= c < 300 for c in self.status_codes)
        )


async def _drive_one(client: LoadClient, kind: str, spec: dict,
                     stats: LoadStats, measured: bool,
                     poll_timeout: float) -> None:
    t0 = time.perf_counter()
    try:
        status, payload = await client.request("POST", "/jobs", spec)
    except (ConnectionError, OSError):
        stats.transport_errors += 1
        return
    accept_s = time.perf_counter() - t0
    stats.code(status)
    if status != 200:
        return
    job = payload["jobs"][0]
    job_id = job["id"]
    delay = 0.004
    deadline = t0 + poll_timeout
    while job.get("status") not in _TERMINAL:
        if time.perf_counter() > deadline:
            stats.transport_errors += 1
            return
        await asyncio.sleep(delay)
        delay = min(delay * 1.6, 0.25)
        try:
            status, job = await client.request("GET", f"/jobs/{job_id}")
        except (ConnectionError, OSError):
            stats.transport_errors += 1
            return
        stats.code(status)
        if status != 200:
            return
    done_s = time.perf_counter() - t0
    if job.get("status") == "failed":
        stats.job_failures += 1
    if measured:
        stats.sample(kind, accept_s, done_s)


async def _run_schedule(host: str, port: int,
                        schedule: List[Tuple[str, dict]],
                        concurrency: int, stats: LoadStats,
                        measured: bool, poll_timeout: float) -> None:
    """Pull the schedule through ``concurrency`` keep-alive workers."""
    queue: asyncio.Queue = asyncio.Queue()
    for item in schedule:
        queue.put_nowait(item)

    async def worker() -> None:
        client = LoadClient(host, port)
        try:
            while True:
                try:
                    kind, spec = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                await _drive_one(client, kind, spec, stats, measured,
                                 poll_timeout)
        finally:
            await client.close()

    workers = min(concurrency, len(schedule)) or 1
    await asyncio.gather(*(worker() for _ in range(workers)))


def build_schedule(warm_jobs: List[SimJob], cold_jobs: List[SimJob],
                   requests: int, mix: Tuple[int, int]
                   ) -> List[Tuple[str, dict]]:
    """Deterministic warm/cold interleaving of ``requests`` submissions.

    Warm submissions cycle the (already primed) warm corpus; cold
    submissions consume fresh perturbations in order.  The mix is
    reduced to smallest terms (80:20 → a 5-slot period of 4 warm then
    1 cold), so the ratio holds even for short runs.
    """
    warm_w, cold_w = mix
    divisor = math.gcd(warm_w, cold_w) or 1
    warm_w, cold_w = warm_w // divisor, cold_w // divisor
    period = warm_w + cold_w
    schedule: List[Tuple[str, dict]] = []
    warm_i = cold_i = 0
    for slot in range(requests):
        cold_turn = cold_w and (slot % period) >= warm_w
        if cold_turn and cold_i < len(cold_jobs):
            schedule.append(("cold", cold_jobs[cold_i].to_dict()))
            cold_i += 1
        elif warm_jobs:
            schedule.append(("warm", warm_jobs[warm_i % len(warm_jobs)]
                             .to_dict()))
            warm_i += 1
        elif cold_i < len(cold_jobs):
            schedule.append(("cold", cold_jobs[cold_i].to_dict()))
            cold_i += 1
    return schedule


def generate(url: str, warm_jobs: List[SimJob], cold_jobs: List[SimJob],
             requests: int = 200, concurrency: int = 32,
             mix: Tuple[int, int] = (80, 20),
             poll_timeout: float = 300.0,
             prime: bool = True) -> dict:
    """Run one load-generation session; returns the report dict."""
    parts = urlsplit(url if "//" in url else f"http://{url}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80

    prime_stats = LoadStats()
    if prime and warm_jobs:
        asyncio.run(_run_schedule(
            host, port, [("prime", j.to_dict()) for j in warm_jobs],
            concurrency, prime_stats, measured=False,
            poll_timeout=poll_timeout,
        ))

    stats = LoadStats()
    schedule = build_schedule(warm_jobs, cold_jobs, requests, mix)
    t0 = time.perf_counter()
    asyncio.run(_run_schedule(host, port, schedule, concurrency, stats,
                              measured=True, poll_timeout=poll_timeout))
    elapsed = time.perf_counter() - t0

    completed = sum(len(v) for v in stats.done.values())
    kinds = sorted(set(stats.accept) | set(stats.done))
    report = {
        "url": f"http://{host}:{port}",
        "requests": len(schedule),
        "concurrency": concurrency,
        "mix": {"warm": mix[0], "cold": mix[1]},
        "primed": len(warm_jobs) if prime else 0,
        "elapsed_seconds": round(elapsed, 6),
        "throughput_jobs_per_sec": round(
            completed / elapsed, 3) if elapsed > 0 else 0.0,
        "phases": {
            "submit_accept": {
                kind: summarize(stats.accept.get(kind, []))
                for kind in kinds
            },
            "submit_done": {
                kind: summarize(stats.done.get(kind, []))
                for kind in kinds
            },
        },
        "status_codes": {
            str(code): n for code, n in sorted(stats.status_codes.items())
        },
        "prime_status_codes": {
            str(code): n
            for code, n in sorted(prime_stats.status_codes.items())
        },
        "transport_errors": (
            stats.transport_errors + prime_stats.transport_errors
        ),
        "job_failures": stats.job_failures + prime_stats.job_failures,
        "ok": (
            stats.all_2xx and prime_stats.all_2xx
            and stats.job_failures + prime_stats.job_failures == 0
            and completed == len(schedule)
        ),
    }
    return report


def render(report: dict) -> str:
    """Human-readable summary of a load-generation report."""
    lines = [
        f"loadgen against {report['url']}: "
        f"{report['requests']} requests at concurrency "
        f"{report['concurrency']} "
        f"(mix warm:cold = {report['mix']['warm']}:{report['mix']['cold']}, "
        f"primed {report['primed']})",
        f"  throughput: {report['throughput_jobs_per_sec']} jobs/s "
        f"over {report['elapsed_seconds']}s",
    ]
    for phase in ("submit_accept", "submit_done"):
        for kind, summary in sorted(report["phases"][phase].items()):
            if not summary.get("count"):
                continue
            lines.append(
                f"  {phase:>13} {kind:<5} n={summary['count']:<5} "
                f"p50={summary['p50'] * 1e3:.1f}ms "
                f"p90={summary['p90'] * 1e3:.1f}ms "
                f"p99={summary['p99'] * 1e3:.1f}ms "
                f"max={summary['max'] * 1e3:.1f}ms"
            )
    codes = ", ".join(
        f"{code}:{n}" for code, n in report["status_codes"].items()
    )
    lines.append(
        f"  status codes: {codes or 'none'}; "
        f"transport errors: {report['transport_errors']}; "
        f"job failures: {report['job_failures']}"
    )
    lines.append(f"  verdict: {'OK' if report['ok'] else 'DEGRADED'}")
    return "\n".join(lines)

"""The four benchmark workloads.

Each workload drives the program only through its public entry points
(``run_campaign``, ``System.run``, ``build_trace``, the trace stores,
``ResultCache``'s on-disk layout and the ``repro-oltp serve`` HTTP
API).  A workload repeats whole *units* of work; the harness in
``run.py`` decides how many fit in ``--seconds``.

Load is generated from this single process with at most ``nproc``
(2 on the reference box) workers, threads or connections.
"""

from __future__ import annotations

import contextlib
import glob
import http.client
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy

from repro import MachineConfig, System, build_trace, simulate
from repro.experiments.cli import FIGURES
from repro.experiments.common import Settings, trace_spec
from repro.obs import SpanRecord, current_tracer
from repro.runner import SimJob, TraceSpec, default_trace_store
from repro.service.loadgen import build_schedule, percentile
from repro.trace.storage import load_trace

#: Worker processes (campaign) and connections (service) per run.
PARALLELISM = 2

#: The paper settings' own trace seed.  A trace's content sets how long
#: its replay takes (up to a quarter apart between seeds), so the
#: benchmark seed never picks the trace: every seed times the same work.
TRACE_SEED = 7


#: Seconds :func:`reference_loop` takes on the 2-CPU reference box when
#: no neighbour slows it down.
REFERENCE_LOOP_S = 0.010

_REFERENCE_ARRAY = numpy.random.default_rng(0).random(100_000)


def reference_loop(sampled: bool = False) -> float:
    """Seconds a fixed mix of interpreted and numpy work takes now.

    A shared host's speed drifts by a third for seconds to minutes at a
    time, slowing interpreted and numpy code alike; timing this loop
    beside each part of the work gives the speed that part ran at.  It
    is recorded as a ``bench.reference`` span, so that a traced run can
    leave its time out of the traced wall.  ``sampled`` is for a thread
    that competes for the CPUs with the work it samples: it counts only
    the thread's own CPU time, and records no span.
    """
    clock = time.thread_time if sampled else time.perf_counter
    with _NO_SPAN if sampled else current_tracer().span("bench.reference"):
        start = clock()
        total = 0
        for i in range(200_000):
            total += i
        numpy.sort(_REFERENCE_ARRAY)
        return clock() - start


_NO_SPAN = contextlib.nullcontext()


def reference_every_cpu() -> float:
    """The reference loop's mean seconds over every CPU this process may
    use, timed on each in turn: the CPUs of a shared host drift
    apart by up to a sixth, and work in another process may run on any.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(reference_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class ReferenceSampler:
    """Times the reference loop on a thread every ``interval`` seconds,
    for work that runs in other processes while this one waits."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.times: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.times.append(reference_loop(sampled=True))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "ReferenceSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class Context:
    src: str
    work: str
    seed: int
    digests: object


@dataclass
class Unit:
    """One unit of timed work and what it produced."""

    wall: float
    jobs: int
    failed: int
    #: Measured trace references replayed (``RunResult.trace_refs``).
    refs: int
    #: Independently timed parts: name -> (seconds, seconds of the
    #: reference loop beside them).  Left empty by a workload that times
    #: the unit as a whole; the harness then makes it the one part.
    parts: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    traced: bool = False
    samples: dict = field(default_factory=dict)


def _program_env(ctx: Context) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ctx.src, env.get("PYTHONPATH")) if p)
    return env


def cli_startup(ctx: Context) -> None:
    """Start the ``repro-oltp`` CLI in a fresh interpreter: the imports
    a user pays before any command does work."""
    subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "--version"],
        env=_program_env(ctx), cwd=ctx.work, check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )


class Workload:
    name = ""
    #: Where the harness times the reference loop beside each unit:
    #: ``"adjacent"``, before and after it on this thread, for work this
    #: thread does; ``"every-cpu"``, before and after it on each CPU in
    #: turn, for work another process does; ``"sampled"``, on a thread
    #: while the unit runs, for long units of work in other processes.
    reference = "adjacent"
    #: Upper bound on units per measurement, whatever ``--seconds`` is.
    max_units = 64
    #: Set-ups per run; the harness reports their median.
    setup_repeats = 3

    def __init__(self, ctx: Context):
        self.ctx = ctx
        #: Job content hash -> measured refs, for per-layer throughput.
        self.refs_by_hash: Dict[str, int] = {}

    def setup(self) -> None:
        """Prepare a unit of work; repeatable, each call from scratch."""

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError

    def finish(self) -> None:
        """After the last unit: stop servers, take hygiene counts."""

    def close(self) -> None:
        """Always called: release every process and descriptor."""

    def extra_spans(self) -> list:
        """Spans recorded by other processes, off this process's clock."""
        return []

    def layer_facts(self, units: List[Unit]) -> dict:
        """Per-layer values the workload measures directly."""
        return {}

    def details(self, units: List[Unit]) -> dict:
        return {}

    def record(self) -> None:
        """Feed every result any seed can produce into the digest table."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# campaign-cold
# ---------------------------------------------------------------------------

#: The paper's reported Figure 10 full-integration speedups (abstract):
#: uniprocessor and 8-CPU over Base, and 8-CPU over Conservative Base.
PAPER_FIG10 = {"uni": 1.4, "mp": 1.4, "cons": 1.55}

SHM_GLOB = "/dev/shm/repro_trace_*"
TRACKER_ERROR = "KeyError: '/repro_trace_"


#: The paper's cache scale at an eighth of its transactions: the
#: runner's fixed costs stay whole, and a cold campaign repeats within
#: a run.
CAMPAIGN_SETTINGS = Settings(uni_txns=50, mp_txns=150)


class CampaignCold(Workload):
    """A cold ``repro-oltp campaign`` of every figure and the two
    non-flat scenarios.

    The figures' inputs are fixed, so the seed chooses nothing here.
    """

    name = "campaign-cold"
    setup_repeats = 5
    reference = "sampled"
    targets = FIGURES + ("islands-mp8", "chiplet-mp8")

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.settings = CAMPAIGN_SETTINGS
        self.tracker_errors = 0
        self.shm_leaked = 0
        self._shm_before = set(glob.glob(SHM_GLOB))
        # The resource tracker inherits stderr when it starts, so the
        # whole workload runs with stderr captured to count its errors.
        self._stderr_file = open(os.path.join(ctx.work, "stderr.txt"), "w+")
        sys.stderr.flush()
        self._saved_stderr = os.dup(2)
        os.dup2(self._stderr_file.fileno(), 2)

    def setup(self) -> None:
        cli_startup(self.ctx)

    def run_unit(self, index: int) -> Unit:
        from repro.experiments.campaign import run_campaign

        traced = current_tracer().enabled
        cache_dir = os.path.join(self.ctx.work, f"campaign-{index}-{traced}")
        # A cold campaign builds its traces; drop any an earlier unit
        # left in the process-wide store.
        default_trace_store().clear()
        start = time.perf_counter()
        report = run_campaign(self.targets, self.settings, jobs=PARALLELISM,
                              cache_dir=cache_dir, progress=False,
                              stream=io.StringIO())
        wall = time.perf_counter() - start

        telemetry = report.telemetry
        results = os.path.join(cache_dir, "results")
        # Jobs that failed terminally have no telemetry record.
        failed = sum(len(jobs) for jobs in report.failures.values())
        attempted = telemetry.total_jobs + failed
        refs = 0
        payloads = {}
        for rec in telemetry.records:
            if rec.job_hash not in payloads:
                payloads[rec.job_hash] = _cached_result(results, rec.job_hash)
            payload = payloads[rec.job_hash]
            if payload is None or not self.ctx.digests.check(rec.job_hash,
                                                             payload):
                failed += 1
                continue
            self.refs_by_hash[rec.job_hash] = payload["trace_refs"]
            if rec.source == "simulated":
                refs += payload["trace_refs"]
        return Unit(
            wall=wall, jobs=attempted, failed=failed, refs=refs,
            traced=traced,
            samples={
                "cache_dir": cache_dir,
                "jobs": telemetry.total_jobs,
                "simulated": telemetry.simulated,
                "cache_puts": len(glob.glob(os.path.join(results, "*.json"))),
                "resilience": telemetry.resilience.to_dict(),
                # Figure 10 needs every ladder result; a failure is
                # already counted above.
                "paper_err_pct": (None if report.failures
                                  else self._paper_err_pct(results)),
            },
        )

    def _paper_err_pct(self, results: str) -> float:
        """Mean absolute error (%) of the Figure 10 speedups vs the paper."""
        from repro.core.results import RunResult
        from repro.experiments.integration import ladder_configs

        scale = self.settings.scale

        def exec_time(ncpus: int, machine) -> float:
            job = SimJob(spec=trace_spec(ncpus, self.settings), machine=machine)
            payload = _cached_result(results, job.content_hash())
            return RunResult.from_dict(payload).exec_time

        uni = dict(ladder_configs(1, scale))
        mp = dict(ladder_configs(8, scale))
        cons = MachineConfig.conservative_base(8, scale=scale)
        all_mp = exec_time(8, mp["All"])
        speedups = {
            "uni": exec_time(1, uni["Base"]) / exec_time(1, uni["L2+MC"]),
            "mp": exec_time(8, mp["Base"]) / all_mp,
            "cons": exec_time(8, cons) / all_mp,
        }
        return 100.0 * sum(
            abs(speedups[k] - PAPER_FIG10[k]) / PAPER_FIG10[k]
            for k in PAPER_FIG10
        ) / len(PAPER_FIG10)

    def finish(self) -> None:
        # Leaks first: stopping the tracker unlinks whatever it still
        # tracks, which would hide them.
        self.shm_leaked = len(set(glob.glob(SHM_GLOB)) - self._shm_before)
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()  # closes its pipe and waits for it to exit
        self._restore_stderr()

    def _restore_stderr(self) -> None:
        if self._saved_stderr is None:
            return
        sys.stderr.flush()
        os.dup2(self._saved_stderr, 2)
        os.close(self._saved_stderr)
        self._saved_stderr = None
        self._stderr_file.seek(0)
        captured = self._stderr_file.read()
        self._stderr_file.close()
        self.tracker_errors = captured.count(TRACKER_ERROR)
        sys.stderr.write(captured)

    def close(self) -> None:
        self._restore_stderr()

    def layer_facts(self, units: List[Unit]) -> dict:
        traced = [u for u in units if u.traced]
        built_refs = 0
        for unit in traced:
            pattern = os.path.join(unit.samples["cache_dir"], "traces", "*.npz")
            built_refs += sum(load_trace(p).total_refs
                              for p in glob.glob(pattern))
        jobs = sum(u.samples["jobs"] for u in traced)
        simulated = sum(u.samples["simulated"] for u in traced)
        return {
            "workers": PARALLELISM,
            "trace.built_refs": built_refs,
            "runner.jobs": jobs,
            "runner.simulated": simulated,
            "runner.simulated_frac": simulated / jobs if jobs else 0.0,
            "runner.cache_puts": sum(u.samples["cache_puts"] for u in traced),
            "runner.retries": sum(u.samples["resilience"]["retries"]
                                  for u in traced),
            "runner.failures": sum(u.samples["resilience"]["failures"]
                                   for u in traced),
            "runner.shm_leaked": self.shm_leaked,
            "runner.tracker_errors": self.tracker_errors,
            "experiments.paper_err_pct":
                traced[-1].samples["paper_err_pct"] or 0.0,
        }

    def details(self, units: List[Unit]) -> dict:
        return {
            "targets": self.targets,
            "jobs_per_unit": [u.samples["jobs"] for u in units],
            "simulated_per_unit": [u.samples["simulated"] for u in units],
            "paper_err_pct": units[-1].samples["paper_err_pct"],
            "paper_fig10": PAPER_FIG10,
            "shm_leaked": self.shm_leaked,
            "shm_stale_before": len(self._shm_before),
            "tracker_errors": self.tracker_errors,
        }

    def record(self) -> None:
        self.run_unit(0)
        self.finish()


def _cached_result(results_dir: str, job_hash: str) -> Optional[dict]:
    """The ``RunResult.to_dict()`` payload the result cache holds."""
    try:
        with open(os.path.join(results_dir, f"{job_hash}.json"),
                  encoding="utf-8") as fh:
            return json.load(fh)["result"]
    except (OSError, ValueError, KeyError):
        return None


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_machines(ncpus: int, scale: int) -> List[MachineConfig]:
    """One machine per distinct L2 geometry of the Figure 5-8 sweeps."""
    from repro.experiments.offchip import sweep_configs
    from repro.experiments.onchip import SRAM_POINTS
    from repro.params import MB, L2Technology

    machines = [m for _, m in sweep_configs(ncpus, scale)]
    machines.append(MachineConfig.base(ncpus, scale=scale))
    machines += [
        MachineConfig.integrated_l2(ncpus, l2_size=size, l2_assoc=assoc,
                                    scale=scale)
        for _, size, assoc in SRAM_POINTS
    ]
    machines.append(MachineConfig.integrated_l2(
        ncpus, l2_size=8 * MB, l2_assoc=8,
        technology=L2Technology.ON_CHIP_DRAM, scale=scale))
    distinct: Dict[tuple, MachineConfig] = {}
    for machine in machines:
        distinct.setdefault((machine.l2_size, machine.l2_assoc), machine)
    return list(distinct.values())


#: The paper's cache scale at half its transactions, so that one pass
#: over every geometry repeats several times within a run.
SWEEP_SETTINGS = Settings(uni_txns=200, mp_txns=600)


class Sweep(Workload):
    """Half-paper-sized traces replayed on every distinct L2 geometry,
    in a seed-chosen order."""

    name = "sweep"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.settings = SWEEP_SETTINGS
        self.rng = random.Random(ctx.seed)
        self.halves = []

    def setup(self) -> None:
        self.halves = []
        for half, ncpus in (("uni", 1), ("mp", 8)):
            spec = trace_spec(ncpus, self.settings)
            trace = build_trace(ncpus=ncpus, scale=spec.scale,
                                txns=spec.txns, seed=TRACE_SEED)
            spec = TraceSpec(ncpus=ncpus, scale=spec.scale, txns=spec.txns,
                             seed=TRACE_SEED)
            jobs = [SimJob(spec=spec, machine=m)
                    for m in sweep_machines(ncpus, self.settings.scale)]
            self.rng.shuffle(jobs)
            # Warm-up: the first replay of a trace builds its views.
            self._replay(jobs[0], trace)
            self.halves.append((half, trace, jobs))

    def _replay(self, job: SimJob, trace):
        job_hash = job.content_hash()
        with current_tracer().span("bench.job", hash=job_hash):
            start = time.perf_counter()
            result = System(job.machine).run(trace)
            seconds = time.perf_counter() - start
        payload = result.to_dict()
        ok = self.ctx.digests.check(job_hash, payload)
        self.refs_by_hash[job_hash] = result.trace_refs
        return seconds, result.trace_refs, ok

    def run_unit(self, index: int) -> Unit:
        start = time.perf_counter()
        samples = {}
        parts = {}
        failed = jobs = refs = 0
        before = reference_loop()
        for half, trace, half_jobs in self.halves:
            half_s = half_refs = 0
            for job in half_jobs:
                seconds, job_refs, ok = self._replay(job, trace)
                after = reference_loop()
                failed += not ok
                parts[job.content_hash()] = (seconds, (before + after) / 2)
                before = after
                half_s += seconds
                half_refs += job_refs
            samples[f"{half}_s"] = half_s
            samples[f"{half}_refs"] = half_refs
            jobs += len(half_jobs)
            refs += half_refs
        return Unit(wall=time.perf_counter() - start, jobs=jobs,
                    failed=failed, refs=refs, parts=parts,
                    traced=current_tracer().enabled, samples=samples)

    def layer_facts(self, units: List[Unit]) -> dict:
        return {"trace.built_refs": sum(t.total_refs
                                        for _, t, _ in self.halves)}

    def details(self, units: List[Unit]) -> dict:
        out = {"trace_seed": TRACE_SEED,
               "jobs_per_half": {h: len(j) for h, _, j in self.halves}}
        for half in ("uni", "mp"):
            out[f"{half}_refs_per_s"] = (
                sum(u.samples[f"{half}_refs"] for u in units)
                / sum(u.samples[f"{half}_s"] for u in units))
        return out

    def record(self) -> None:
        self.setup()
        self.run_unit(0)


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

SERVICE_FIGURES = ("fig5", "fig10")
COLD_POOL = 600
COLD_PER_UNIT = 50
REQUESTS = 550
MIX = (10, 1)
#: Fixed poll interval while a job runs: fine enough that completion
#: is seen within 2 ms instead of on a backoff step.
POLL_S = 0.002
JOB_DEADLINE_S = 60.0
HTTP_TIMEOUT_S = 30.0


class _Client:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
            try:
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                data = response.read()
                return response.status, json.loads(data) if data else {}
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt:
                    raise
        raise ConnectionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class ServiceMix(Workload):
    name = "service-mix"
    reference = "every-cpu"
    max_units = COLD_POOL // COLD_PER_UNIT

    def __init__(self, ctx: Context):
        from repro.service import figure_jobs, perturbed_jobs

        super().__init__(ctx)
        settings = Settings.quick()
        rng = random.Random(ctx.seed)
        self.warm = figure_jobs(SERVICE_FIGURES, settings)
        rng.shuffle(self.warm)
        pool = perturbed_jobs(COLD_POOL, settings)
        self.cold = rng.sample(pool, len(pool))
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setups = 0
        self.trace_path: Optional[str] = None
        self.last_trace_path: Optional[str] = None

    # -- server lifecycle --------------------------------------------------

    def setup(self) -> None:
        self._stop_server()
        self.setups += 1
        cache_dir = os.path.join(self.ctx.work, f"service-{self.setups}")
        cmd = [sys.executable, "-m", "repro.experiments.cli", "serve",
               "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
               "--cache-dir", cache_dir]
        self.trace_path = None
        if current_tracer().enabled:
            self.trace_path = os.path.join(self.ctx.work,
                                           f"server-{self.setups}.json")
            cmd += ["--trace-out", self.trace_path]
        stderr = open(os.path.join(self.ctx.work,
                                   f"server-{self.setups}.err"), "w")
        try:
            self.proc = subprocess.Popen(
                cmd, env=_program_env(self.ctx), cwd=self.ctx.work,
                stdout=subprocess.PIPE, stderr=stderr, text=True)
        finally:
            stderr.close()
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        # Prime: the warm corpus simulates once and stays in the job table.
        client = _Client(self.port)
        try:
            status, payload = client.request(
                "POST", "/jobs", [job.to_dict() for job in self.warm])
            if status != 200:
                raise RuntimeError(f"priming failed with HTTP {status}")
            for entry in payload["jobs"]:
                final = self._await(client, entry)
                if final is None or final["status"] != "done":
                    raise RuntimeError(f"priming job {entry['id']} failed")
        finally:
            client.close()

    def _await(self, client: _Client, entry: dict, polls: list = None):
        deadline = time.perf_counter() + JOB_DEADLINE_S
        while entry.get("status") not in ("done", "failed"):
            if time.perf_counter() > deadline:
                return None
            time.sleep(POLL_S)
            status, entry = client.request("GET", f"/jobs/{entry['id']}")
            if polls is not None:
                polls[0] += 1
            if status != 200:
                return None
        return entry

    def _stop_server(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        self.last_trace_path = self.trace_path

    def finish(self) -> None:
        self._stop_server()

    def close(self) -> None:
        self._stop_server()

    # -- the measured closed loop ------------------------------------------

    def run_unit(self, index: int) -> Unit:
        cold = self.cold[index * COLD_PER_UNIT:(index + 1) * COLD_PER_UNIT]
        hashes = {job.content_hash(): kind
                  for kind, jobs in (("warm", self.warm), ("cold", cold))
                  for job in jobs}
        schedule = build_schedule(self.warm, cold, REQUESTS, MIX)
        outcomes: List[Optional[dict]] = [None] * len(schedule)
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()
        errors: List[BaseException] = []

        def connection() -> None:
            client = _Client(self.port)
            try:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    outcomes[i] = self._drive(client, schedule[i][1])
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
            finally:
                client.close()

        stats_client = _Client(self.port)
        _, before = stats_client.request("GET", "/stats")
        start = time.perf_counter()
        threads = [threading.Thread(target=connection)
                   for _ in range(PARALLELISM)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        _, after = stats_client.request("GET", "/stats")
        if errors:
            stats_client.close()
            raise errors[0]

        # Correctness, after the clock: every distinct job's result.
        verdict: Dict[str, bool] = {}
        refs = 0
        for outcome in outcomes:
            job_id = outcome and outcome.get("id")
            if not job_id or job_id in verdict:
                continue
            status, payload = stats_client.request(
                "GET", f"/jobs/{job_id}/result")
            ok = (status == 200 and job_id in hashes
                  and self.ctx.digests.check(job_id, payload["result"]))
            verdict[job_id] = ok
            if ok and hashes[job_id] == "cold":
                refs += payload["result"]["trace_refs"]
        stats_client.close()

        samples = {"warm": [], "cold": [], "submit": [], "polls": 0}
        failed = 0
        for (kind, _), outcome in zip(schedule, outcomes):
            if (outcome is None or not outcome["ok"]
                    or not verdict.get(outcome["id"])):
                failed += 1
                continue
            samples[kind].append(outcome["latency"])
            samples["submit"].append(outcome["submit"])
            samples["polls"] += outcome["polls"]
        samples["stats"] = _stats_delta(before, after)
        return Unit(wall=wall, jobs=len(schedule), failed=failed, refs=refs,
                    traced=current_tracer().enabled,
                    samples=samples)

    def _drive(self, client: _Client, spec: dict) -> dict:
        """Submit one job and poll until it is observed finished."""
        start = time.perf_counter()
        try:
            status, payload = client.request("POST", "/jobs", spec)
        except (OSError, http.client.HTTPException):
            return {"ok": False, "id": None}
        submit = time.perf_counter() - start
        if status != 200:
            return {"ok": False, "id": None}
        polls = [0]
        try:
            final = self._await(client, payload["jobs"][0], polls)
        except (OSError, http.client.HTTPException):
            final = None
        latency = time.perf_counter() - start
        return {
            "ok": final is not None and final["status"] == "done",
            "id": payload["jobs"][0]["id"],
            "latency": latency, "submit": submit, "polls": polls[0],
        }

    # -- reporting ---------------------------------------------------------

    def extra_spans(self) -> list:
        """The traced server's spans (its own clock; durations only)."""
        if not self.last_trace_path or not os.path.exists(self.last_trace_path):
            return []
        with open(self.last_trace_path, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        return [SpanRecord(e["name"], e["ts"] / 1e6, e["dur"] / 1e6,
                           e["pid"], str(e["tid"]), e.get("args"))
                for e in events if e.get("ph") == "X"]

    def layer_facts(self, units: List[Unit]) -> dict:
        traced = [u for u in units if u.traced]
        facts = _latency_facts(traced)
        wall = sum(u.wall for u in traced)
        delta = _sum_dicts(u.samples["stats"] for u in traced)
        # The traced server is the last one set up; its spans carry the
        # trace builds, its cache directory the traces they built.
        traces = os.path.join(self.ctx.work, f"service-{self.setups}",
                              "traces", "*.npz")
        facts.update({
            "trace.built_refs": sum(load_trace(p).total_refs
                                    for p in glob.glob(traces)),
            "service.dedup_hits": delta["dedup_hits"],
            "service.simulated": delta["simulated"],
            "service.utilization": delta["sim_seconds"] / wall,
        })
        return facts

    def details(self, units: List[Unit]) -> dict:
        out = _latency_facts(units)
        out["samples"] = {
            "warm": sum(len(u.samples["warm"]) for u in units),
            "cold": sum(len(u.samples["cold"]) for u in units),
        }
        out["percentile_rule"] = ("nearest rank; the highest percentile "
                                  "with >= 10 samples beyond it")
        out["stats_delta"] = _sum_dicts(u.samples["stats"] for u in units)
        return out

    def record(self) -> None:
        store = default_trace_store()
        for job in self.warm + self.cold:
            result = simulate(job.machine, store.get(job.spec),
                              check=job.check)
            self.ctx.digests.check(job.content_hash(), result.to_dict())


def _stats_delta(before: dict, after: dict) -> dict:
    def counters(stats):
        metrics = stats.get("metrics", {}).get("counters", {})
        return {
            "dedup_hits": stats["counters"]["dedup_hits"],
            "simulated": stats["counters"]["simulated"],
            "sim_seconds": metrics.get("service.sim_seconds", 0.0),
        }
    b, a = counters(before), counters(after)
    return {key: a[key] - b[key] for key in a}


def _sum_dicts(dicts) -> dict:
    total: Dict[str, float] = {}
    for d in dicts:
        for key, value in d.items():
            total[key] = total.get(key, 0) + value
    return total


def _latency_facts(units: List[Unit]) -> dict:
    def pooled(kind):
        return [s for u in units for s in u.samples[kind]]

    warm, cold, submit = pooled("warm"), pooled("cold"), pooled("submit")
    jobs = sum(u.jobs for u in units)
    return {
        "service.warm_p50_ms": 1e3 * percentile(warm, 50),
        "service.warm_p99_ms": 1e3 * percentile(warm, 99),
        "service.cold_p50_ms": 1e3 * percentile(cold, 50),
        "service.cold_p90_ms": 1e3 * percentile(cold, 90),
        "service.submit_p50_ms": 1e3 * percentile(submit, 50),
        "service.submit_p99_ms": 1e3 * percentile(submit, 99),
        "service.polls_per_job": (sum(u.samples["polls"] for u in units)
                                  / jobs if jobs else 0.0),
    }


# ---------------------------------------------------------------------------
# trace-stream
# ---------------------------------------------------------------------------

#: Transactions streamed, as a multiple of the paper's uniprocessor run.
SCALE_X = 2


class TraceStream(Workload):
    """The paper's uniprocessor workload, scaled up and streamed.

    One fixed input, so the seed chooses nothing here.
    """

    name = "trace-stream"
    setup_repeats = 5

    def setup(self) -> None:
        cli_startup(self.ctx)

    def run_unit(self, index: int) -> Unit:
        from repro.runner.tracestore import StreamingTraceStore

        settings = Settings.paper()
        spec = TraceSpec(ncpus=1, scale=settings.scale,
                         txns=settings.uni_txns * SCALE_X,
                         seed=TRACE_SEED)
        machine = MachineConfig(label="stream-base", ncpus=1)
        job_hash = SimJob(spec=spec, machine=machine).content_hash()
        start = time.perf_counter()
        trace = StreamingTraceStore(spill_dir=None).stream(spec)
        result = simulate(machine, trace, engine="fast")
        wall = time.perf_counter() - start
        ok = self.ctx.digests.check(job_hash, result.to_dict())
        self.refs_by_hash[job_hash] = result.trace_refs
        return Unit(wall=wall, jobs=1, failed=int(not ok),
                    refs=result.trace_refs,
                    traced=current_tracer().enabled,
                    samples={"refs_seen": trace.refs_seen})

    def details(self, units: List[Unit]) -> dict:
        return {"trace_seed": TRACE_SEED, "txns_multiplier": SCALE_X,
                "refs_seen_per_unit": units[0].samples["refs_seen"]}

    def record(self) -> None:
        self.run_unit(0)


WORKLOADS = {w.name: w for w in (CampaignCold, Sweep, ServiceMix, TraceStream)}

"""End-to-end acceptance: HTTP results vs serial ground truth, and
SIGKILL-restart resume producing byte-identical output.

These are the two contracts that make service mode trustworthy:

1. the Figure 5 corpus submitted over HTTP at high concurrency yields
   results **bit-identical** to the serial in-process path;
2. a server SIGKILLed mid-campaign and restarted on the same journal
   finishes the remaining work, and the assembled output is
   **byte-identical** to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.profile import profile_key
from repro.experiments.common import Settings
from repro.runner import run_simulations
from repro.runner.jobs import canonical_json
from repro.service import figure_jobs
from repro.service.corpus import perturbed_jobs

SETTINGS = Settings(scale=128, uni_txns=20, mp_txns=40)
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def results_csv(rows) -> bytes:
    """A deterministic CSV over (label, hash, result-dict) rows.

    The payload column is the result's full canonical JSON, so two
    byte-identical CSVs mean every statistic of every job agrees.
    """
    lines = ["label,job,result"]
    for label, job_hash, result in sorted(rows, key=lambda r: r[1]):
        lines.append(f"{label},{job_hash},{canonical_json(result)}")
    return ("\n".join(lines) + "\n").encode()


def fetch_json(url: str):
    with urllib.request.urlopen(url) as resp:
        return json.load(resp)


class TestHTTPMatchesSerial:
    def test_fig5_corpus_bit_identical_at_high_concurrency(
            self, live_server, store):
        service, base = live_server
        jobs = figure_jobs(("fig5",), SETTINGS)
        serial = run_simulations(jobs)

        def submit(job):
            body = json.dumps(job.to_dict()).encode()
            req = urllib.request.Request(
                f"{base}/jobs", data=body,
                headers={"Content-Type": "application/json"})
            return json.load(urllib.request.urlopen(req))

        # 36 concurrent submissions of the 9-job corpus (every job
        # four times): exercises dedup under real thread concurrency.
        submissions = [jobs[i % len(jobs)] for i in range(36)]
        with ThreadPoolExecutor(max_workers=36) as pool:
            responses = list(pool.map(submit, submissions))
        assert all(r["count"] == 1 for r in responses)

        for job, expected in zip(jobs, serial):
            job_hash = job.content_hash()
            entry = service.wait(job_hash, timeout=180)
            assert entry.status == "done"
            payload = fetch_json(f"{base}/jobs/{job_hash}/result")
            assert canonical_json(payload["result"]) == canonical_json(
                expected.to_dict())
        # Every duplicate submission attached instead of re-running,
        # and one job per cache geometry replayed: the rest retimed.
        keys = {profile_key(j.spec, j.machine, j.check) for j in jobs}
        assert (service.counters.simulated + service.counters.retimed
                == len(jobs))
        assert service.counters.simulated == len(keys)
        assert service.counters.dedup_hits == 36 - len(jobs)


class TestKillRestartResume:
    def test_sigkill_then_restart_yields_byte_identical_csv(
            self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        journal = str(tmp_path / "svc.journal")
        args = [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", journal,
            "--scale", str(SETTINGS.scale),
            "--uni-txns", str(SETTINGS.uni_txns),
        ]

        def start():
            # Each server gets its own session, so its pool workers
            # share one process group with it.
            proc = subprocess.Popen(
                args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env, cwd=str(tmp_path),
                start_new_session=True)
            line = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", line)
            assert match, f"no listen line: {line!r}"
            return proc, match.group(0)

        jobs = perturbed_jobs(10, SETTINGS, start=500)
        ids = [job.content_hash() for job in jobs]

        first, base = start()
        try:
            body = json.dumps({"jobs": [j.to_dict() for j in jobs]}).encode()
            req = urllib.request.Request(
                f"{base}/jobs", data=body,
                headers={"Content-Type": "application/json"})
            accepted = json.load(urllib.request.urlopen(req))
            assert accepted["count"] == len(jobs)
            time.sleep(0.25)  # let some jobs finish, leave some in flight
            first.send_signal(signal.SIGKILL)
            first.wait(timeout=30)

            second, base = start()
            try:
                deadline = time.time() + 180
                statuses = {}
                while len(statuses) < len(ids) and time.time() < deadline:
                    for job_id in ids:
                        if job_id in statuses:
                            continue
                        status = fetch_json(f"{base}/jobs/{job_id}")
                        if status["status"] in ("done", "failed"):
                            statuses[job_id] = status
                    time.sleep(0.1)
                assert len(statuses) == len(ids), "restart lost accepted jobs"
                assert all(s["status"] == "done" for s in statuses.values())
                assert all(s["recovered"] for s in statuses.values())

                served = results_csv(
                    (job.label, job_hash,
                     fetch_json(f"{base}/jobs/{job_hash}/result")["result"])
                    for job, job_hash in zip(jobs, ids)
                )
            finally:
                second.send_signal(signal.SIGTERM)
                out, _ = second.communicate(timeout=120)
            assert second.returncode == 0, out
            assert "drained=yes" in out
        finally:
            # SIGKILL left the first server's pool workers behind:
            # kill its process group.
            try:
                os.killpg(first.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            first.wait(timeout=30)
            first.stdout.close()

        # The uninterrupted ground truth: the same corpus simulated
        # serially in this process.
        uninterrupted = results_csv(
            (job.label, job.content_hash(), result.to_dict())
            for job, result in zip(jobs, run_simulations(jobs))
        )
        assert served == uninterrupted

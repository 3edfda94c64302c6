"""Chaos harness: every worker fault class heals to identical output.

The contract under test is the headline robustness claim: a campaign
whose workers crash, hang, lie, or stall produces *bit-identical*
figures to a fault-free run — the supervisor absorbs the fault, the
resilience counters record it, and nothing else changes.  The resume
path gets the harshest treatment: a campaign SIGKILLed mid-flight must
finish from its journal with the same output.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.common import Settings
from repro.integrity import (
    FaultInjectionError,
    WorkerFaultKind,
    WorkerFaultPlan,
    parse_worker_faults,
)
from repro.integrity.faults import EVERY_JOB

TINY = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)


def chaos_campaign(tmp_path, spec, **kw):
    token_dir = str(tmp_path / "tokens")
    os.makedirs(token_dir, exist_ok=True)
    return run_campaign(
        ("fig5",), TINY, jobs=2, cache_dir=None, progress=False,
        chaos=(parse_worker_faults(spec), token_dir), **kw,
    )


@pytest.fixture(scope="module")
def baseline():
    """The fault-free fig5 campaign every chaos run must reproduce."""
    return run_campaign(("fig5",), TINY, jobs=1, cache_dir=None,
                        progress=False)


class TestFaultSpecParsing:
    def test_full_grammar(self):
        plans = parse_worker_faults("crash@0,hang@1~120,slow@*~0.1:3")
        assert [p.kind for p in plans] == [
            WorkerFaultKind.CRASH, WorkerFaultKind.HANG, WorkerFaultKind.SLOW]
        assert plans[1].delay == 120.0
        assert plans[2].at_job == EVERY_JOB
        assert plans[2].times == 3

    def test_empty_spec_rejected(self):
        with pytest.raises(FaultInjectionError):
            parse_worker_faults("")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            parse_worker_faults("meltdown@0")

    def test_malformed_tokens_rejected(self):
        for bad in ("crash", "crash@x", "hang@0~fast", "slow@0:lots"):
            with pytest.raises(FaultInjectionError):
                parse_worker_faults(bad)

    def test_plan_matching(self):
        assert WorkerFaultPlan("crash", at_job=2).matches(2)
        assert not WorkerFaultPlan("crash", at_job=2).matches(1)
        assert WorkerFaultPlan("slow", at_job=EVERY_JOB).matches(17)


class TestFaultClassesHeal:
    """One campaign per fault class: identical output, counters fired."""

    def assert_identical(self, report, baseline):
        assert report.ok, report.failures
        assert report.figures == baseline.figures

    def test_crash_is_respawned(self, tmp_path, baseline):
        report = chaos_campaign(tmp_path, "crash@0")
        self.assert_identical(report, baseline)
        r = report.telemetry.resilience
        assert r.crashes >= 1
        assert r.respawns >= 1

    def test_hang_is_timed_out_and_retried(self, tmp_path, baseline):
        report = chaos_campaign(tmp_path, "hang@0~600", job_timeout=2.0)
        self.assert_identical(report, baseline)
        r = report.telemetry.resilience
        assert r.timeouts >= 1
        assert r.retries >= 1

    def test_corrupt_result_fails_checksum_and_retries(self, tmp_path,
                                                       baseline):
        report = chaos_campaign(tmp_path, "corrupt-result@0")
        self.assert_identical(report, baseline)
        r = report.telemetry.resilience
        assert r.corrupt_results >= 1
        assert r.retries >= 1

    def test_transient_raise_is_retried(self, tmp_path, baseline):
        report = chaos_campaign(tmp_path, "transient-raise@0")
        self.assert_identical(report, baseline)
        assert report.telemetry.resilience.retries >= 1

    def test_slow_workers_change_nothing_but_time(self, tmp_path, baseline):
        report = chaos_campaign(tmp_path, "slow@*~0.02:4")
        self.assert_identical(report, baseline)
        assert report.telemetry.resilience.failures == 0

    def test_fault_storm_still_heals(self, tmp_path, baseline):
        report = chaos_campaign(
            tmp_path, "crash@0,transient-raise@1,corrupt-result@2,slow@3~0.05")
        self.assert_identical(report, baseline)
        assert report.telemetry.resilience.eventful


class TestTerminalFailure:
    def test_unretryable_storm_reports_instead_of_raising(self, tmp_path,
                                                          baseline):
        # Every job raises on every attempt and no retries are allowed:
        # the campaign must still *complete*, carrying a structured
        # per-job report instead of an exception.
        report = chaos_campaign(tmp_path, "transient-raise@*:9999",
                                max_retries=0)
        assert not report.ok
        failures = report.failures["fig5"]
        assert len(failures) == report.telemetry.resilience.failures > 0
        assert all(f["kind"] == "error" for f in failures)
        assert all(f["attempts"] == 1 for f in failures)
        assert "FAILED" in report.figures[0][1]

    def test_failure_report_payload(self, tmp_path):
        out = tmp_path / "report.json"
        report = chaos_campaign(tmp_path, "transient-raise@*:9999",
                                max_retries=0, failure_report=str(out))
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert payload["failures"]["fig5"] == report.failures["fig5"]
        assert payload["resilience"]["failures"] > 0


RESUME_DRIVER = """
import sys
from repro.experiments.campaign import run_campaign
from repro.experiments.common import Settings
from repro.integrity.faults import parse_worker_faults

journal, token_dir = sys.argv[1], sys.argv[2]
run_campaign(
    ("fig5",), Settings(scale=256, uni_txns=15, mp_txns=30, seed=3),
    jobs=1, cache_dir=None, progress=False, resume=journal,
    chaos=(parse_worker_faults("slow@*~0.4:9999"), token_dir),
)
"""


class TestKillAndResume:
    def test_sigkill_mid_campaign_resumes_bit_identical(self, tmp_path,
                                                        baseline):
        journal = tmp_path / "run.journal"
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_root)

        # Launch a campaign whose jobs are artificially slowed, wait
        # until at least two completions hit the journal, then SIGKILL
        # the whole process — the harshest interruption there is.
        proc = subprocess.Popen(
            [sys.executable, "-c", RESUME_DRIVER, str(journal),
             str(token_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if journal.exists() and \
                        journal.read_bytes().count(b"\n") >= 3:
                    break  # header + >=2 durable entries
                if proc.poll() is not None:
                    break  # finished whole: resume still must serve all
                time.sleep(0.05)
            else:
                pytest.fail("journal never accumulated two entries")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        # Resume without chaos: journaled jobs are served, the rest
        # simulate (or retime from a sibling's profile), and the figure
        # is identical to the clean baseline.
        resumed = run_campaign(("fig5",), TINY, jobs=2, cache_dir=None,
                               progress=False, resume=str(journal))
        assert resumed.ok
        assert resumed.telemetry.journal_hits >= 2
        assert resumed.journal_stats.entries_loaded >= 2
        assert (resumed.telemetry.journal_hits
                + resumed.telemetry.simulated
                + resumed.telemetry.retimed
                + resumed.telemetry.cache_hits
                == resumed.telemetry.total_jobs)
        assert resumed.figures == baseline.figures

        # A third pass serves everything from the journal.
        again = run_campaign(("fig5",), TINY, jobs=2, cache_dir=None,
                             progress=False, resume=str(journal))
        assert again.telemetry.simulated == 0
        assert again.telemetry.journal_hits == again.telemetry.total_jobs
        assert again.figures == baseline.figures

"""The supervised executor: retry policy, outcomes, happy-path pool."""

from __future__ import annotations

import os
import random

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.runner import RetryPolicy, SimJob, SupervisedExecutor, TraceSpec
from repro.runner import supervisor
from repro.runner.supervisor import JobFailure, JobOutcome, payload_crc
from repro.runner.tracestore import default_trace_store

SCALE = 256


def tiny_jobs():
    spec = TraceSpec(ncpus=1, scale=SCALE, txns=15, warmup_txns=5, seed=3)
    return [
        SimJob(spec=spec, machine=MachineConfig.integrated_l2(1, scale=SCALE)),
        SimJob(spec=spec, machine=MachineConfig.base(1, scale=SCALE)),
    ]


class TestRetryPolicy:
    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_rejects_negative_delays(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay=-1.0)

    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_backoff_grows_exponentially_without_jitter(self):
        p = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=100.0,
                        jitter=0.0)
        rng = random.Random(0)
        assert p.delay(1, rng) == pytest.approx(0.1)
        assert p.delay(2, rng) == pytest.approx(0.2)
        assert p.delay(4, rng) == pytest.approx(0.8)

    def test_backoff_caps_at_max_delay(self):
        p = RetryPolicy(base_delay=0.1, multiplier=10.0, max_delay=0.5,
                        jitter=0.0)
        assert p.delay(10, random.Random(0)) == pytest.approx(0.5)

    def test_jitter_stays_within_fraction(self):
        p = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                        jitter=0.5)
        rng = random.Random(7)
        for attempt in range(1, 20):
            d = p.delay(attempt, rng)
            assert 1.0 <= d <= 1.5

    def test_seeded_jitter_is_reproducible(self):
        p = RetryPolicy(jitter=0.5, seed=5)
        a = [p.delay(n, random.Random(p.seed)) for n in (1, 2, 3)]
        b = [p.delay(n, random.Random(p.seed)) for n in (1, 2, 3)]
        assert a == b


class TestOutcomeTypes:
    def test_outcome_ok_flag(self):
        job = tiny_jobs()[0]
        assert JobOutcome(job).ok
        failed = JobOutcome(job, failure=JobFailure(
            job.label, job.content_hash(), "timeout", "boom", 3))
        assert not failed.ok

    def test_failure_to_dict_round_trips(self):
        f = JobFailure("1M4w", "abc", "crash", "worker died", 2)
        d = f.to_dict()
        assert d == {"label": "1M4w", "job_hash": "abc", "kind": "crash",
                     "message": "worker died", "attempts": 2}

    def test_payload_crc_tracks_content(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"x": 1, "y": [1, 3]}
        assert payload_crc(a) == payload_crc(dict(a))
        assert payload_crc(a) != payload_crc(b)


class TestHappyPath:
    def test_pool_results_are_value_identical_to_inline(self):
        jobs = tiny_jobs()
        inline = [simulate(j.machine, j.spec.build(), check=j.check)
                  for j in jobs]
        seen = []
        with SupervisedExecutor(2, default_trace_store()) as ex:
            outcomes = ex.run(
                jobs, on_result=lambda job, *rest: seen.append(job.label))
        assert all(o.ok for o in outcomes)
        assert [o.attempts for o in outcomes] == [1, 1]
        for outcome, expect in zip(outcomes, inline):
            assert outcome.result.to_dict() == expect.to_dict()
        assert sorted(seen) == sorted(j.label for j in jobs)

    def test_next_job_is_in_flight_before_on_result_runs(self):
        # A callback that retimes siblings must not hold a worker idle.
        jobs = tiny_jobs()
        submitted, seen = [], []
        with SupervisedExecutor(1, default_trace_store()) as ex:
            make_pool = ex._make_pool

            def recording_pool():
                pool = make_pool()
                submit = pool.submit

                def record(fn, job, *args):
                    submitted.append(job.label)
                    return submit(fn, job, *args)

                pool.submit = record
                return pool

            ex._make_pool = recording_pool
            ex.run(jobs, on_result=lambda *_: seen.append(list(submitted)))
        assert seen[0] == [job.label for job in jobs]

    def test_stats_stay_quiet_on_a_clean_run(self):
        with SupervisedExecutor(2, default_trace_store()) as ex:
            ex.run(tiny_jobs())
            assert not ex.stats.eventful

    def test_close_is_idempotent(self):
        ex = SupervisedExecutor(1, default_trace_store())
        ex.close()
        ex.close()


class TestGroups:
    def test_group_that_kills_the_pool_fails_alone(self, monkeypatch):
        spec = TraceSpec(ncpus=1, scale=SCALE, txns=15, warmup_txns=5, seed=3)
        jobs = [SimJob(spec=spec, machine=MachineConfig.base(1, scale=SCALE,
                                                              l2_size=size))
                for size in (1 << 20, 2 << 20, 4 << 20, 8 << 20)]
        doomed = jobs[0].label
        real = supervisor.simulate_job

        def simulate(job, trace):
            if job.label == doomed:
                os._exit(1)
            return real(job, trace)

        # The workers the pool forks afterwards inherit it.
        monkeypatch.setattr(supervisor, "simulate_job", simulate)
        with SupervisedExecutor(2, default_trace_store(),
                                max_respawns=1) as ex:
            outcomes = ex.run(jobs, groups=["a", "a", "b", "b"])
            assert [o.ok for o in outcomes[2:]] == [True, True]
            assert outcomes[0].failure.kind == "crash"
            assert ex.stats.failures == sum(not o.ok for o in outcomes)

"""JobService unit behaviour: dedup, warm paths, backpressure, drain."""

from __future__ import annotations

import os
import threading

import pytest

from repro.integrity.errors import QueueFullError, ServiceUnavailableError
from repro.obs import Tracer, use_tracer
from repro.runner import CampaignJournal, JobFailure, JobOutcome
from repro.service import STATUS_DONE, STATUS_FAILED, STATUS_QUEUED
from repro.service import core

from _helpers import broken_job, simulated_result, tiny_job


class TestSubmission:
    def test_an_empty_trace_store_is_used_not_replaced(self, make_service,
                                                       store):
        # An empty TraceStore is falsy; the service must still keep it
        # rather than fall back to the process-wide store.
        assert len(store) == 0
        service = make_service(started=False)
        assert service.trace_store is store

    def test_cold_job_simulates_and_completes(self, make_service, store):
        service = make_service()
        entry = service.submit(tiny_job(0))
        done = service.wait(entry.job_hash, timeout=60)
        assert done.status == STATUS_DONE
        assert done.source == "simulated"
        assert done.result.to_dict() == simulated_result(
            tiny_job(0), store).to_dict()
        assert service.counters.simulated == 1

    def test_traced_service_absorbs_the_workers_spans(self, make_service):
        tracer = Tracer()
        with use_tracer(tracer):
            service = make_service()
            entry = service.submit(tiny_job(0))
            assert service.wait(entry.job_hash,
                                timeout=60).status == STATUS_DONE
        runs = [s for s in tracer.spans if s.name == "system.run"]
        assert runs and all(s.pid != os.getpid() for s in runs)

    def test_duplicate_hash_attaches_to_existing_entry(self, make_service):
        service = make_service(started=False)
        first = service.submit(tiny_job(0))
        second = service.submit(tiny_job(0))
        assert second is first
        assert first.submissions == 2
        assert service.counters.dedup_hits == 1
        assert service.counters.accepted == 1

    def test_cache_hit_is_born_done_without_queueing(
            self, make_service, cache, store):
        job = tiny_job(1)
        cache.store(job, simulated_result(job, store))
        service = make_service(started=False)
        entry = service.submit(job)
        assert entry.status == STATUS_DONE
        assert entry.source == "cache"
        assert service.counters.cache_hits == 1
        assert service.counters.accepted == 0

    def test_journal_hit_is_born_done(self, make_service, store,
                                      journal_path):
        job = tiny_job(2)
        with CampaignJournal(journal_path) as journal:
            journal.append(job, simulated_result(job, store))
        service = make_service(started=False)
        entry = service.submit(job)
        assert entry.status == STATUS_DONE
        assert entry.source == "journal"
        assert service.counters.journal_hits == 1

    def test_queue_full_raises_and_counts(self, make_service):
        service = make_service(started=False, queue_limit=1)
        service.submit(tiny_job(0))
        with pytest.raises(QueueFullError):
            service.submit(tiny_job(1))
        assert service.counters.rejected_full == 1
        # The rejected job left no trace in the table.
        assert service.get(tiny_job(1).content_hash()) is None

    def test_draining_service_rejects_new_work(self, make_service):
        service = make_service()
        service.close()
        with pytest.raises(ServiceUnavailableError):
            service.submit(tiny_job(0))
        assert service.counters.rejected_draining == 1

    def test_submit_many_preserves_order(self, make_service):
        service = make_service(started=False)
        jobs = [tiny_job(i) for i in range(3)]
        entries = service.submit_many(jobs)
        assert [e.job_hash for e in entries] == [
            j.content_hash() for j in jobs]
        assert all(e.status == STATUS_QUEUED for e in entries)


class TestFailures:
    def test_terminal_worker_failure_marks_entry_failed(
            self, make_service):
        service = make_service()
        entry = service.submit(broken_job())
        done = service.wait(entry.job_hash, timeout=60)
        assert done.status == STATUS_FAILED
        assert done.failure is not None
        assert done.failure["message"]
        assert service.counters.failed == 1

    def test_failed_jobs_do_not_poison_later_submissions(
            self, make_service, store):
        service = make_service()
        bad = service.submit(broken_job())
        good = service.submit(tiny_job(0))
        assert service.wait(bad.job_hash, timeout=60).status == STATUS_FAILED
        assert service.wait(good.job_hash, timeout=60).status == STATUS_DONE


class TestLifecycle:
    def test_graceful_close_drains_queued_work(self, make_service):
        service = make_service()
        entries = [service.submit(tiny_job(i)) for i in range(3)]
        assert service.close(drain=True, timeout=120)
        assert all(e.status == STATUS_DONE for e in entries)

    def test_recovery_requeues_accepted_unfinished_jobs(
            self, make_service, journal_path):
        job = tiny_job(4)
        with CampaignJournal(journal_path) as journal:
            journal.accept(job)
        service = make_service()
        entry = service.get(job.content_hash())
        assert entry is not None
        assert entry.recovered
        assert service.counters.recovered == 1
        assert service.wait(job.content_hash(),
                            timeout=60).status == STATUS_DONE

    def test_recovery_materializes_finished_jobs_as_done(
            self, make_service, store, journal_path):
        job = tiny_job(5)
        with CampaignJournal(journal_path) as journal:
            journal.accept(job)
            journal.append(job, simulated_result(job, store))
        service = make_service(started=True)
        entry = service.get(job.content_hash())
        assert entry is not None
        assert entry.status == STATUS_DONE
        assert entry.source == "journal"
        assert service.counters.recovered == 0  # nothing to re-run

    def test_stats_shape(self, make_service):
        service = make_service()
        entry = service.submit(tiny_job(0))
        service.wait(entry.job_hash, timeout=60)
        stats = service.stats()
        assert stats["workers"] == 2
        assert stats["queue_limit"] == 64
        assert stats["jobs"]["done"] == 1
        assert stats["counters"]["simulated"] == 1
        assert "resilience" in stats
        assert stats["cache"]["hit_rate"] == 0.0
        assert "journal" in stats

    def test_health_carries_version_info(self, make_service):
        service = make_service(started=False)
        health = service.health()
        assert health["ok"] is True
        assert set(health["version"]) >= {
            "package", "code_version", "trace_format"}


class TestProfileMemo:
    """One replay per cache geometry: the rest retime, bit for bit."""

    def test_memo_hit_is_born_done_without_queueing(self, make_service,
                                                    store, cache):
        service = make_service()
        first = service.submit(tiny_job(0))
        assert service.wait(first.job_hash, timeout=60).source == "simulated"
        job = tiny_job(1)  # same geometry, another label
        entry = service.submit(job)
        assert entry.status == STATUS_DONE
        assert entry.status_dict()["source"] == "retimed"
        assert entry.result.to_dict() == simulated_result(
            job, store).to_dict()
        assert service.counters.accepted == 1
        assert service.counters.retimed == 1
        assert service.stats()["counters"]["retimed"] == 1
        # Retimed results are journaled, never written to the cache.
        assert cache.load(job) is None

    def test_retime_that_raises_fails_the_entry(self, make_service,
                                                monkeypatch):
        service = make_service()
        first = service.submit(tiny_job(0))
        service.wait(first.job_hash, timeout=60)

        def broken(job, profile):
            raise RuntimeError("injected")

        monkeypatch.setattr(core, "retime_job", broken)
        entry = service.submit(tiny_job(1))
        assert entry.status == STATUS_FAILED
        assert "injected" in entry.failure["message"]
        assert service.counters.failed == 1
        assert service.counters.retimed == 0

    def test_close_waits_for_a_retime_under_way(self, make_service,
                                                monkeypatch):
        service = make_service()
        first = service.submit(tiny_job(0))
        service.wait(first.job_hash, timeout=60)
        started, release = threading.Event(), threading.Event()
        real_retime = core.retime_job

        def slow(job, profile):
            started.set()
            release.wait(30)
            return real_retime(job, profile)

        monkeypatch.setattr(core, "retime_job", slow)
        submitter = threading.Thread(target=service.submit,
                                     args=(tiny_job(1),))
        submitter.start()
        assert started.wait(30)
        drained = []
        closer = threading.Thread(target=lambda: drained.append(
            service.close()))
        closer.start()
        closer.join(0.3)
        assert closer.is_alive()  # still waiting on the retime
        release.set()
        submitter.join(30)
        closer.join(30)
        assert drained == [True]
        assert service.get(tiny_job(1).content_hash()).source == "retimed"

    def test_queued_siblings_replay_once(self, make_service, store):
        service = make_service(started=False)
        jobs = [tiny_job(i) for i in range(3)]
        entries = service.submit_many(jobs)
        assert all(e.status == STATUS_QUEUED for e in entries)
        service.start()
        for job, entry in zip(jobs, entries):
            done = service.wait(entry.job_hash, timeout=60)
            assert done.result.to_dict() == simulated_result(
                job, store).to_dict()
        assert sorted(e.source for e in entries) == [
            "retimed", "retimed", "simulated"]
        assert service.counters.simulated == 1
        assert service.counters.retimed == 2

    def test_failed_representative_makes_the_siblings_replay(
            self, make_service, monkeypatch):
        service = make_service(started=False)
        real_run = service._executor.run
        calls = []

        def run(jobs, on_result=None, **kwargs):
            calls.append(len(jobs))
            if len(calls) > 1:
                return real_run(jobs, on_result=on_result, **kwargs)
            (rep,) = jobs
            return [JobOutcome(rep, failure=JobFailure(
                rep.label, rep.content_hash(), "error", "injected", 1))]

        monkeypatch.setattr(service._executor, "run", run)
        entries = service.submit_many([tiny_job(i) for i in range(3)])
        service.start()
        statuses = [service.wait(e.job_hash, timeout=60).status
                    for e in entries]
        assert statuses == [STATUS_FAILED, STATUS_DONE, STATUS_DONE]
        assert calls == [1, 2]
        assert service.counters.simulated == 2
        assert service.counters.failed == 1

    def test_retimed_job_is_journaled_for_a_restart(self, make_service,
                                                     store):
        service = make_service(with_cache=False)
        first = service.submit(tiny_job(0))
        service.wait(first.job_hash, timeout=60)
        job = tiny_job(1)
        assert service.submit(job).source == "retimed"
        service.close()
        restarted = make_service(with_cache=False)
        entry = restarted.submit(job)
        assert entry.status == STATUS_DONE
        assert entry.source == "journal"
        assert entry.result.to_dict() == simulated_result(
            job, store).to_dict()

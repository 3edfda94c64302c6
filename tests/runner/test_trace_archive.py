"""Workers load every trace from its archive, even with no spill directory.

On a trace store without a spill directory the supervised pool
archives into a temporary directory and removes it on close.  A
two-worker campaign runner and a two-worker job service must each
return the serial results, generate each trace once and never in a
replay worker, and leave no temporary directory behind, also when
interrupted mid-batch or when a worker crashes and the pool respawns.
An archived trace replays exactly as the trace it was saved from;
archiving twice writes nothing new; the temporary directory goes on
the first ``close()``, or when an unclosed executor is collected.

Builds and replays are logged with their pid by ``TraceSpec.build`` and
``simulate_job`` patched in this process; the forked pool processes
inherit the patches.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.integrity import parse_worker_faults
from repro.obs import Tracer, use_tracer
from repro.params import BASE_L2_SIZE
from repro.runner import CampaignRunner, SimJob, TraceSpec, TraceStore
from repro.runner import supervisor
from repro.runner.supervisor import SupervisedExecutor
from repro.service import JobService

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool processes inherit the build log only when forked")

SPECS = [TraceSpec(ncpus=n, scale=256, txns=15, warmup_txns=5, seed=3)
         for n in (1, 2)]
#: Two cache geometries per trace: every job replays in a worker.
JOBS = [SimJob(spec=spec,
               machine=MachineConfig.base(spec.ncpus, l2_size=size,
                                          scale=256).with_(label=f"{i}"))
        for spec in SPECS
        for i, size in enumerate((BASE_L2_SIZE, 2 * BASE_L2_SIZE))]


@pytest.fixture
def tmp_root(tmp_path, monkeypatch):
    """This test's temporary-file root; lists the trace directories
    left in it."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(root))
    return lambda: sorted(p.name for p in root.glob("repro-traces-*"))


@pytest.fixture
def events(tmp_path, monkeypatch):
    """Log every trace build and worker replay; returns a reader of
    ``(builds as (key, pid), replay pids)``."""
    path = tmp_path / "events.log"
    real_build = TraceSpec.build
    real_simulate = supervisor.simulate_job

    def note(event: str) -> None:
        with open(path, "a") as fh:
            fh.write(f"{event} {os.getpid()}\n")

    def build(spec):
        note(f"build {spec.key}")
        return real_build(spec)

    def simulate(job, trace):
        note("replay -")
        return real_simulate(job, trace)

    monkeypatch.setattr(TraceSpec, "build", build)
    monkeypatch.setattr(supervisor, "simulate_job", simulate)

    def read():
        rows = [line.split() for line in path.read_text().splitlines()]
        builds = [(key, int(pid)) for kind, key, pid in rows
                  if kind == "build"]
        replays = {int(pid) for kind, _, pid in rows if kind == "replay"}
        return builds, replays
    return read


def serial_results():
    with CampaignRunner(jobs=1, trace_store=TraceStore()) as runner:
        return [r.to_dict() for r in runner.run_jobs(JOBS)]


def assert_built_once_outside_workers(events) -> None:
    builds, replays = events()
    assert sorted(key for key, _ in builds) == sorted(s.key for s in SPECS)
    assert replays
    assert not {pid for _, pid in builds} & replays


@needs_fork
class TestCampaignRunner:
    def test_parallel_batch_archives_each_trace_once(self, events,
                                                     tmp_root):
        with CampaignRunner(jobs=2, trace_store=TraceStore()) as runner:
            results = [r.to_dict() for r in runner.run_jobs(JOBS)]
            assert len(tmp_root()) == 1
        assert not tmp_root()
        assert_built_once_outside_workers(events)
        assert results == serial_results()

    def test_interrupt_mid_batch_leaves_no_directory(self, monkeypatch,
                                                     tmp_root):
        seen = []

        def interrupt(self, *args):
            seen.append(tmp_root())
            raise KeyboardInterrupt

        monkeypatch.setattr(CampaignRunner, "_record", interrupt)
        with pytest.raises(KeyboardInterrupt):
            with CampaignRunner(jobs=2, trace_store=TraceStore()) as runner:
                runner.run_jobs(JOBS)
        assert len(seen) == 1 and len(seen[0]) == 1
        assert not tmp_root()
        assert multiprocessing.active_children() == []

    def test_respawned_pool_loads_the_same_archive(self, events, tmp_path,
                                                   tmp_root):
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        chaos = (parse_worker_faults("crash@0"), str(token_dir))
        with CampaignRunner(jobs=2, trace_store=TraceStore(),
                            chaos=chaos) as runner:
            results = [r.to_dict() for r in runner.run_jobs(JOBS)]
            resilience = runner.telemetry.resilience
            assert resilience.crashes >= 1 and resilience.respawns >= 1
        assert not tmp_root()
        assert_built_once_outside_workers(events)
        assert results == serial_results()


@needs_fork
class TestJobService:
    def service(self) -> JobService:
        service = JobService(workers=2, trace_store=TraceStore())
        self.entries = service.submit_many(JOBS)  # one batch
        return service.start()

    def test_parallel_batch_archives_each_trace_once(self, events,
                                                     tmp_root):
        with self.service() as service:
            results = [service.wait(e.job_hash, timeout=120).result.to_dict()
                       for e in self.entries]
            assert len(tmp_root()) == 1
        assert not tmp_root()
        assert_built_once_outside_workers(events)
        assert results == serial_results()

    def test_interrupt_mid_batch_leaves_no_directory(self, tmp_root):
        seen = []
        with pytest.raises(KeyboardInterrupt):
            with self.service() as service:
                service.wait(self.entries[0].job_hash, timeout=120)
                seen.append(tmp_root())
                raise KeyboardInterrupt
        assert len(seen[0]) == 1
        assert not tmp_root()
        assert multiprocessing.active_children() == []


class TestSupervisedExecutor:
    def archived(self, executor: SupervisedExecutor) -> TraceStore:
        """A worker's view: a store that loads from the archive."""
        executor._archive_traces(SPECS, with_obs=False)
        return TraceStore(spill_dir=executor._archive_dir())

    def test_archived_replay_identical(self, tmp_root):
        with SupervisedExecutor(2, TraceStore()) as executor:
            worker = self.archived(executor)
            for job in JOBS:
                built, loaded = job.spec.build(), worker.get(job.spec)
                assert loaded.warmup_quanta == built.warmup_quanta
                assert loaded.text_pages == built.text_pages
                for engine in ("fast", "auto"):
                    assert (simulate(job.machine, loaded,
                                     engine=engine).to_dict()
                            == simulate(job.machine, built,
                                        engine=engine).to_dict())
            assert worker.stats.archive_loads == len(SPECS)
            assert worker.stats.builds == 0

    def test_archiving_twice_writes_nothing_new(self, tmp_root):
        store = TraceStore()
        with SupervisedExecutor(2, store) as executor:
            worker = self.archived(executor)
            paths = [worker.ensure_archived(spec) for spec in SPECS]
            before = [os.stat(path) for path in paths]
            tracer = Tracer()
            with use_tracer(tracer):
                executor._archive_traces(SPECS, with_obs=True)
            assert not [s for s in tracer.spans if s.name == "trace.build"]
            assert store.stats.builds == 0
            after = [os.stat(path) for path in paths]
            assert ([(s.st_ino, s.st_mtime_ns) for s in after]
                    == [(s.st_ino, s.st_mtime_ns) for s in before])
            assert sorted(os.listdir(executor._archive_dir())) == sorted(
                os.path.basename(path) for path in paths)
            assert len(tmp_root()) == 1

    def test_close_removes_the_directory_once(self, tmp_root):
        executor = SupervisedExecutor(1, TraceStore())
        executor.close()  # nothing archived: nothing to remove
        self.archived(executor)
        assert len(tmp_root()) == 1
        executor.close()
        assert not tmp_root()
        executor.close()
        assert not tmp_root()

    def test_unclosed_executor_removes_the_directory_when_collected(
            self, tmp_root):
        executor = SupervisedExecutor(1, TraceStore())
        self.archived(executor)
        assert len(tmp_root()) == 1
        del executor
        gc.collect()
        assert not tmp_root()

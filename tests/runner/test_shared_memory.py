"""Shared-memory trace arena: one mapping, N workers, zero leaks.

Four contracts under test:

* **replay parity** — a trace attached from a shared segment is
  bit-identical to the store's materialized copy, in-process and
  across a real two-worker campaign pool (shared-memory on vs. off
  produce equal ``RunResult.to_dict()`` payloads);
* **ownership** — only the publishing parent unlinks segments; worker
  attachments never race the parent's cleanup (the resource-tracker
  unregister path), so a campaign leaves ``/dev/shm`` exactly as it
  found it;
* **crash safety** — a chaos-crashed worker and the supervisor's pool
  respawn leave no leaked segments either: respawned workers re-attach
  by name and the parent still unlinks exactly once;
* **tracker consistency** — a worker sharing the parent's resource
  tracker never deletes the parent's registration, so the parent's
  unlink leaves no ``KeyError`` traceback on stderr.

Leak checks filter ``/dev/shm`` by this process's pid (segment names
embed the creator pid), so parallel test workers cannot see each
other's segments.
"""

import glob
import os
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.runner.executor import CampaignRunner
from repro.runner.jobs import SimJob
from repro.runner.shm import (
    SEGMENT_PREFIX,
    SharedTraceArena,
    attach_shared_trace,
    detach_all,
)
from repro.runner.tracestore import TraceSpec, TraceStore
from repro.trace.stream import iter_quanta

SPEC = TraceSpec(ncpus=2, scale=256, txns=30, seed=3)
MACHINES = (
    MachineConfig(label="shm-a", ncpus=2),
    MachineConfig(label="shm-b", ncpus=2, l2_size=1 << 20),
)


def my_segments():
    """Segments created by this process (pid is embedded in the name)."""
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*")


@pytest.fixture
def store():
    return TraceStore(spill_dir=None)


@pytest.fixture
def arena():
    with SharedTraceArena() as arena:
        yield arena
        detach_all()
    assert not my_segments()


class TestAttachParity:
    def test_attached_replay_identical(self, arena, store):
        handle = arena.publish(SPEC, store)
        shared = attach_shared_trace(handle)
        base = store.get(SPEC)
        assert shared.warmup_quanta == base.warmup_quanta
        assert shared.text_pages == base.text_pages
        assert len(shared.quanta) == len(base.quanta)
        for mc in MACHINES:
            want = simulate(mc, base).to_dict()
            got = simulate(mc, shared).to_dict()
            assert got == want, mc.label
        del shared

    def test_scalar_loops_iterate_python_ints(self, arena, store):
        """The scalar engines see shared refs as Python ints, not boxed
        numpy scalars, and ``fast`` matches the materialized trace."""
        shared = attach_shared_trace(arena.publish(SPEC, store))
        for _, quantum, _, _ in iter_quanta(shared):
            assert all(type(ref) is int for ref in quantum.refs)
        mc = MACHINES[0]
        want = simulate(mc, store.get(SPEC), engine="fast").to_dict()
        assert simulate(mc, shared, engine="fast").to_dict() == want
        del shared

    def test_publish_is_idempotent(self, arena, store):
        first = arena.publish(SPEC, store)
        second = arena.publish(SPEC, store)
        assert first is second
        assert len(arena) == 1
        assert arena.bytes_published == first.nbytes

    def test_attach_is_cached_per_process(self, arena, store):
        handle = arena.publish(SPEC, store)
        assert attach_shared_trace(handle) is attach_shared_trace(handle)

    def test_handle_layout_accounts_every_byte(self, arena, store):
        handle = arena.publish(SPEC, store)
        base = store.get(SPEC)
        nq = len(base.quanta)
        nrefs = sum(len(q.refs) for q in base.quanta)
        assert handle.num_quanta == nq
        assert handle.num_refs == nrefs
        assert handle.nbytes == 8 * (nq + 1 + nrefs + handle.num_text) + 4 * nq

    def test_attach_after_unlink_raises(self, store):
        arena = SharedTraceArena()
        handle = arena.publish(SPEC, store)
        arena.cleanup()
        detach_all()
        with pytest.raises(FileNotFoundError):
            attach_shared_trace(handle)


class TestCleanup:
    def test_cleanup_unlinks_everything(self, store):
        arena = SharedTraceArena()
        arena.publish(SPEC, store)
        assert my_segments()
        arena.cleanup()
        assert not my_segments()
        arena.cleanup()  # idempotent
        assert len(arena) == 0

    def test_context_manager_cleans_up(self, store):
        with SharedTraceArena() as arena:
            arena.publish(SPEC, store)
            assert my_segments()
        assert not my_segments()


class TestCampaignSharedMemory:
    """The tentpole end-to-end contract, on a real two-worker pool."""

    def jobs(self):
        return [SimJob(spec=SPEC, machine=mc) for mc in MACHINES]

    def run_campaign(self, tmp_path, shared_memory, chaos=None):
        with CampaignRunner(
            jobs=2, shared_memory=shared_memory,
            trace_store=TraceStore(spill_dir=str(tmp_path / "traces")),
            chaos=chaos,
        ) as runner:
            results = [r.to_dict() for r in runner.run_jobs(self.jobs())]
        return results

    def test_two_process_parity_and_no_leaks(self, tmp_path):
        on = self.run_campaign(tmp_path, shared_memory=True)
        assert not my_segments()
        off = self.run_campaign(tmp_path, shared_memory=False)
        assert on == off
        assert not my_segments()

    def test_chaos_crash_leaves_no_leaked_segments(self, tmp_path):
        from repro.integrity import parse_worker_faults

        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        baseline = self.run_campaign(tmp_path, shared_memory=True)
        chaos = (parse_worker_faults("crash@0"), str(token_dir))
        crashed = self.run_campaign(tmp_path, shared_memory=True,
                                    chaos=chaos)
        assert crashed == baseline
        assert not my_segments()


class TestResourceTracker:
    """Workers must leave the parent's resource-tracker entry alone."""

    CAMPAIGN = textwrap.dedent("""
        import os, sys
        from repro.experiments.campaign import run_campaign
        from repro.experiments.common import Settings
        report = run_campaign(
            ("fig5", "fig6"), Settings(scale=256, uni_txns=15, mp_txns=30,
                                       seed=3),
            jobs=2, cache_dir=sys.argv[1], progress=False)
        assert report.ok, report.failures
        print(os.getpid())
    """)

    def test_two_worker_campaign_leaves_no_tracker_error(self, tmp_path):
        # A fresh interpreter, so the resource tracker it starts writes
        # to a stderr we capture.  fig6's trace is published after the
        # fig5 batch forked the pool: the worker attaching it shares
        # the parent's tracker entry.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", self.CAMPAIGN, str(tmp_path / "cache")],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        pid = int(proc.stdout.split()[-1])
        assert f"KeyError: '/{SEGMENT_PREFIX}" not in proc.stderr
        assert "leaked shared_memory" not in proc.stderr
        assert not glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{pid}_*")

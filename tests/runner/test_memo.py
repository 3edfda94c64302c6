"""The profile memo and the replay plan every job path shares."""

from __future__ import annotations

import numpy as np

from repro.coherence.network import MessageCounters
from repro.core.machine import MachineConfig
from repro.core.profile import MemoryProfile, OrderedProfile, profile_key
from repro.params import KB
from repro.runner import ProfileMemo, SimJob, TraceSpec
from repro.runner import memo as memo_module
from repro.stats.breakdown import L1Stats, MissBreakdown, ProtocolStats, RacStats

SPEC = TraceSpec(ncpus=8, scale=32, txns=10, seed=1)


def job(machine: MachineConfig) -> SimJob:
    return SimJob(spec=SPEC, machine=machine)


def key(j: SimJob) -> tuple:
    return profile_key(j.spec, j.machine, j.check)


def profile(ordered=False, replicated=False, separable=False):
    """An empty 8-node profile that :meth:`MemoryProfile.serves` can
    judge: with or without an ordered log, replicated or not."""
    log = None
    if ordered:
        empty = np.zeros(0, dtype=np.int32)
        log = OrderedProfile(0, np.zeros(1, dtype=np.int64), empty,
                             np.zeros(0, dtype=np.uint8), empty, empty)
    return MemoryProfile(
        num_nodes=8, cpus=[], misses=MissBreakdown(), l1=L1Stats(),
        protocol=ProtocolStats(), rac=RacStats(), network=MessageCounters(),
        measured_txns=0, l2_hits=0, trace_refs=0, ordered=log,
        replicated=replicated, code_separable=separable)


BASE = job(MachineConfig.base(8))
FULL = job(MachineConfig.fully_integrated(8, l2_size=BASE.machine.l2_size,
                                          l2_assoc=BASE.machine.l2_assoc))
REPL = job(FULL.machine.with_(replicate_code=True))
OTHER = job(MachineConfig.base(8, l2_assoc=4))
OOO = job(MachineConfig.base(8, cpu_model="ooo"))
RAC = job(MachineConfig.fully_integrated(8, l2_size=BASE.machine.l2_size,
                                         l2_assoc=BASE.machine.l2_assoc)
          .with_(rac_size=8 * 1024 * KB))


class TestMemo:
    def test_least_recently_used_goes_first(self, monkeypatch):
        monkeypatch.setattr(memo_module, "PROFILE_MEMO_LIMIT", 2)
        memo = ProfileMemo()
        memo.put(("a",), "A")
        memo.put(("b",), "B")
        assert memo.get(("a",)) == "A"  # now the most recent
        memo.put(("c",), "C")
        assert memo.get(("b",)) is None
        assert memo.get(("a",)) == "A" and memo.get(("c",)) == "C"

    def test_lookup_ignores_latencies_not_geometry(self):
        memo = ProfileMemo()
        inorder = profile()
        memo.put(key(BASE), inorder)
        assert memo.lookup(FULL) is inorder  # same geometry, other latencies
        assert memo.lookup(OTHER) is None
        # Same key, but an OOO CPU needs the ordered log.
        assert key(OOO) == key(BASE)
        assert memo.lookup(OOO) is None
        ordered = profile(ordered=True)
        memo.put(key(OOO), ordered)
        assert memo.lookup(OOO) is ordered and memo.lookup(BASE) is ordered

    def test_lookup_serves_replication_only_when_code_is_apart(self):
        memo = ProfileMemo()
        assert key(REPL) == key(BASE)
        memo.put(key(BASE), profile())
        assert memo.lookup(REPL) is None
        memo.put(key(BASE), profile(separable=True))
        assert memo.lookup(REPL) is not None
        memo.put(key(BASE), profile(replicated=True))
        assert memo.lookup(REPL) is not None
        assert memo.lookup(BASE) is None


class TestPlan:
    def test_one_replay_per_key_and_alone_without_one(self):
        memo = ProfileMemo()
        other = profile()
        memo.put(key(OTHER), other)
        jobs = [BASE, OOO, FULL, OTHER, RAC]
        plan = memo.plan(jobs)
        # BASE, OOO and FULL share a key; the OOO job serves them all
        # and replays in BASE's place.
        assert plan.replays == [1, 4]
        assert plan.retimed == [(3, other)]
        ordered = profile(ordered=True)
        assert plan.replayed(1, ordered) == [0, 2]
        assert memo.get(key(BASE)) is ordered
        assert plan.replayed(4, profile()) == []
        assert plan.leftover == []

    def test_siblings_the_profile_does_not_serve_replay_alone(self):
        memo = ProfileMemo()
        plan = memo.plan([REPL, BASE, FULL])
        assert plan.replays == [1]  # the non-replicated job serves more
        assert plan.replayed(1, profile()) == [2]
        assert plan.leftover == [0]
        plan = ProfileMemo().plan([REPL, BASE])
        assert plan.replayed(1, profile(separable=True)) == [0]

    def test_a_memo_hit_that_does_not_serve_replays(self):
        memo = ProfileMemo()
        memo.put(key(BASE), profile())
        plan = memo.plan([BASE, OOO, FULL])
        assert [i for i, _ in plan.retimed] == [0, 2]
        assert plan.replays == [1]
        ordered = profile(ordered=True)
        assert plan.replayed(1, ordered) == []
        assert memo.get(key(BASE)) is ordered

    def test_indices_select_the_jobs(self):
        plan = ProfileMemo().plan([BASE, FULL, OTHER], [1, 2])
        assert plan.replays == [1, 2]

    def test_failure_sends_the_siblings_to_leftover(self):
        plan = ProfileMemo().plan([BASE, FULL, OTHER])
        plan.failed(0)
        assert plan.leftover == [1]
        assert plan.replayed(2, profile()) == []

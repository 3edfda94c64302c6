"""The profile memo and the replay plan every job path shares."""

from __future__ import annotations

from repro.core.machine import MachineConfig
from repro.core.profile import profile_key
from repro.params import KB
from repro.runner import ProfileMemo, SimJob, TraceSpec
from repro.runner import memo as memo_module

SPEC = TraceSpec(ncpus=8, scale=32, txns=10, seed=1)


def job(machine: MachineConfig) -> SimJob:
    return SimJob(spec=SPEC, machine=machine)


def key(j: SimJob) -> tuple:
    return profile_key(j.spec, j.machine, j.check)


BASE = job(MachineConfig.base(8))
FULL = job(MachineConfig.fully_integrated(8, l2_size=BASE.machine.l2_size,
                                          l2_assoc=BASE.machine.l2_assoc))
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
        memo.put(key(BASE), "P")
        assert memo.lookup(FULL) == "P"  # same geometry, other latencies
        assert memo.lookup(OTHER) is None
        assert memo.lookup(OOO) is None


class TestPlan:
    def test_one_replay_per_key_and_alone_without_one(self):
        memo = ProfileMemo()
        memo.put(key(OTHER), "P")
        jobs = [BASE, OOO, FULL, OTHER, RAC]
        plan = memo.plan(jobs)
        assert plan.replays == [0, 1, 4]
        assert plan.retimed == [(3, "P")]
        assert plan.replayed(0, "Q") == [2]
        assert memo.get(key(BASE)) == "Q"
        assert plan.replayed(1, None) == []
        assert plan.leftover == []

    def test_indices_select_the_jobs(self):
        plan = ProfileMemo().plan([BASE, FULL, OTHER], [1, 2])
        assert plan.replays == [1, 2]

    def test_no_profile_sends_the_siblings_to_leftover(self):
        memo = ProfileMemo()
        plan = memo.plan([BASE, FULL, job(BASE.machine.with_(label="x"))])
        assert plan.replays == [0]
        assert plan.replayed(0, None) == []
        assert plan.leftover == [1, 2]
        assert memo.get(key(BASE)) is None

    def test_failure_sends_the_siblings_to_leftover(self):
        plan = ProfileMemo().plan([BASE, FULL, OTHER])
        plan.failed(0)
        assert plan.leftover == [1]
        assert plan.replayed(2, "R") == []

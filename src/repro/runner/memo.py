"""The profile memo: serve a job by retiming instead of replaying.

Every path that runs jobs — the campaign runner, the inline
:func:`~repro.runner.executor.run_simulations` path and the job
service — plans a batch the same way, through :meth:`ProfileMemo.plan`:

* a job whose :func:`~repro.core.profile.profile_key` the memo already
  holds, under a profile that :meth:`~repro.core.profile.MemoryProfile.serves`
  it, is retimed from that profile (:func:`retime_job`);
* the rest group by key, and one representative per group replays:
  the member whose profile serves the most, an out-of-order job over
  an in-order one and a non-replicated job over a replicated one;
* the representative's profile goes into the memo and retimes the
  siblings it serves; the others, and the siblings of a representative
  that fails, replay on their own.  Every engine returns a profile.

The memo is an LRU of at most :data:`PROFILE_MEMO_LIMIT` profiles.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.profile import MemoryProfile, profile_key, retime
from repro.core.results import RunResult
from repro.runner.jobs import SimJob

__all__ = ["PROFILE_MEMO_LIMIT", "ProfileMemo", "ReplayPlan", "retime_job"]

#: Most profiles one memo holds; the least recently used go first.  An
#: 8-node profile is tens of kilobytes, and `all` has under 30 keys.
PROFILE_MEMO_LIMIT = 256


def retime_job(job: SimJob, profile: MemoryProfile) -> RunResult:
    """``job``'s result from a profile of the same :func:`profile_key`,
    checked like a replay at the job's integrity level."""
    result = retime(profile, job.machine)
    if job.check != "off":
        result.verify()
    return result


class ProfileMemo:
    """Memory profiles by profile key, least recently used evicted.

    Not thread-safe: a caller shared between threads (the job service)
    holds its own lock around every call.
    """

    def __init__(self):
        self._profiles: "OrderedDict[tuple, MemoryProfile]" = OrderedDict()

    def get(self, key: tuple) -> Optional[MemoryProfile]:
        profile = self._profiles.get(key)
        if profile is not None:
            self._profiles.move_to_end(key)
        return profile

    def put(self, key: tuple, profile: MemoryProfile) -> None:
        self._profiles[key] = profile
        self._profiles.move_to_end(key)
        if len(self._profiles) > PROFILE_MEMO_LIMIT:
            self._profiles.popitem(last=False)

    def lookup(self, job: SimJob) -> Optional[MemoryProfile]:
        """The memoized profile ``job`` retimes from, if any."""
        profile = self.get(profile_key(job.spec, job.machine, job.check))
        if profile is not None and profile.serves(job.machine):
            return profile
        return None

    def plan(self, jobs: Sequence[SimJob],
             indices: Optional[Sequence[int]] = None) -> "ReplayPlan":
        """Plan ``jobs[i]`` for each of ``indices`` (default: all).

        Memo hits that serve their job retime; every other job groups
        by profile key, and one member per group replays, at the
        position of the group's first job."""
        return ReplayPlan(self, jobs,
                          range(len(jobs)) if indices is None else indices)


def _breadth(job: SimJob) -> tuple:
    """Ranks a group's members: the highest one's profile serves the
    whole group (an ordered log serves in-order CPUs too, and a
    non-replicated profile may serve replicated machines)."""
    return job.machine.cpu_model == "ooo", not job.machine.replicate_code


class ReplayPlan:
    """One batch of jobs planned against a :class:`ProfileMemo`.

    ``retimed`` lists ``(index, profile)`` for the jobs the memo already
    serves.  ``replays`` lists one representative per profile key the
    memo lacks.  Report each replay with
    :meth:`replayed` or :meth:`failed`; jobs that must then replay on
    their own collect in ``leftover``.
    """

    def __init__(self, memo: ProfileMemo, jobs: Sequence[SimJob],
                 indices: Sequence[int]):
        self._memo = memo
        self._jobs = jobs
        self._keys: Dict[int, tuple] = {}
        self._siblings: Dict[int, List[int]] = {}
        self.retimed: List[Tuple[int, MemoryProfile]] = []
        self.leftover: List[int] = []
        groups: Dict[tuple, List[int]] = {}
        order: List[List[int]] = []  # the groups, by first member
        for i in indices:
            job = jobs[i]
            key = profile_key(job.spec, job.machine, job.check)
            self._keys[i] = key
            profile = memo.get(key)
            if profile is not None and profile.serves(job.machine):
                self.retimed.append((i, profile))
            elif key in groups:
                groups[key].append(i)
            else:
                groups[key] = [i]
                order.append(groups[key])
        for members in order:
            rep = max(members, key=lambda m: _breadth(jobs[m]))
            self._siblings[rep] = [m for m in members if m != rep]
        self.replays: List[int] = list(self._siblings)

    def replayed(self, i: int, profile: MemoryProfile) -> List[int]:
        """Record job ``i``'s replay; returns the siblings to retime
        from ``profile``, which replaces the memo's entry for the key.
        Siblings it does not serve join ``leftover``."""
        siblings = self._siblings.pop(i, [])
        self._memo.put(self._keys[i], profile)
        served = []
        for sib in siblings:
            if profile.serves(self._jobs[sib].machine):
                served.append(sib)
            else:
                self.leftover.append(sib)
        return served

    def failed(self, i: int) -> None:
        """Job ``i`` failed: its siblings replay on their own."""
        self.leftover.extend(self._siblings.pop(i, []))

"""The profile memo: serve a job by retiming instead of replaying.

Every path that runs jobs — the campaign runner, the inline
:func:`~repro.runner.executor.run_simulations` path and the job
service — plans a batch the same way, through :meth:`ProfileMemo.plan`:

* a job whose :func:`~repro.core.profile.profile_key` the memo already
  holds is retimed from that profile (:func:`retime_job`);
* the rest group by key, and one representative per group replays;
* the representative's profile goes into the memo and retimes its
  siblings; a representative that returns no profile (its engine fell
  back to the scalar loop) or fails sends its siblings to replay on
  their own.

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

    def get(self, key: Optional[tuple]) -> Optional[MemoryProfile]:
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
        return self.get(profile_key(job.spec, job.machine, job.check))

    def plan(self, jobs: Sequence[SimJob],
             indices: Optional[Sequence[int]] = None) -> "ReplayPlan":
        """Plan ``jobs[i]`` for each of ``indices`` (default: all)."""
        return ReplayPlan(self, jobs,
                          range(len(jobs)) if indices is None else indices)


class ReplayPlan:
    """One batch of jobs planned against a :class:`ProfileMemo`.

    ``retimed`` lists ``(index, profile)`` for the jobs the memo already
    covers.  ``replays`` lists one representative per profile key the
    memo lacks, plus every job without a key.  Report each replay with
    :meth:`replayed` or :meth:`failed`; jobs that must then replay on
    their own collect in ``leftover``.
    """

    def __init__(self, memo: ProfileMemo, jobs: Sequence[SimJob],
                 indices: Sequence[int]):
        self._memo = memo
        self._keys: Dict[int, tuple] = {}
        self._siblings: Dict[int, List[int]] = {}
        self.retimed: List[Tuple[int, MemoryProfile]] = []
        self.leftover: List[int] = []
        representative: Dict[tuple, int] = {}
        for i in indices:
            job = jobs[i]
            key = profile_key(job.spec, job.machine, job.check)
            if key is None:
                self._siblings[i] = []
                continue
            self._keys[i] = key
            profile = memo.get(key)
            if profile is not None:
                self.retimed.append((i, profile))
            elif key in representative:
                self._siblings[representative[key]].append(i)
            else:
                representative[key] = i
                self._siblings[i] = []
        self.replays: List[int] = list(self._siblings)

    def replayed(self, i: int,
                 profile: Optional[MemoryProfile]) -> List[int]:
        """Record job ``i``'s replay; returns the siblings to retime
        from ``profile``.  With no profile they join ``leftover``."""
        siblings = self._siblings.pop(i, [])
        if profile is None:
            self.leftover.extend(siblings)
            return []
        self._memo.put(self._keys[i], profile)
        return siblings

    def failed(self, i: int) -> None:
        """Job ``i`` failed: its siblings replay on their own."""
        self.leftover.extend(self._siblings.pop(i, []))

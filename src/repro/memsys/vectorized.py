"""Vectorized in-order uniprocessor replay kernel.

The scalar loops in :mod:`repro.core.system` walk every packed
reference through the L1/L2 hierarchy one at a time; for the
coherence-free uniprocessor configurations that dominate Figures 5, 7,
10 and 13 this is pure Python overhead.  This module replays the same
trace with numpy doing the heavy lifting and produces statistics that
are **bit-identical** to ``System._run_fast`` — the contract the
differential harness (``tests/core/test_differential.py``) enforces —
so cached campaign results stay valid across engines.

The kernel picks one walk per L2 shape:

* **Direct-mapped L2: a precomputed schedule.**  With inclusion, a
  reference to a line absent from the L2 is necessarily an L1 miss, so
  a direct-mapped L2's content after *any* reference is simply the
  last line referenced in that L2 set.  Consequently the exact L2 miss
  positions, victim lines, writeback flags and final L2 state are all
  computable with array operations alone (a stable sort by L2 set plus
  segmented reductions), independent of L1 state.  Only the 2-way L1s
  are then replayed, by a lean flat-array walk that consumes the
  precomputed purge schedule.

* **Associative L2: a scalar walk.**  The L2 is replayed jointly with
  the L1s (list-based, mirroring ``_run_fast`` operation for
  operation), and the final L2 and directory state come from that
  walk.

The kernel replays in-order CPUs only and charges them no cycles: it
tallies busy time, L2 hits and local misses into the run's
:class:`~repro.core.profile.MemoryProfile`, which ``System.run``
retimes.  Out-of-order CPUs, whose overlap depends on the order of
events, take the staged walk of
:mod:`repro.memsys.vectorized_mp` on one node, which logs an
:class:`~repro.core.profile.OrderedProfile`.

Multiprocessor traces are out of scope here: the staged coherence
pipeline in :mod:`repro.memsys.vectorized_mp` (the ``vectorized-mp``
engine) extends the same flat-state, exact-by-construction approach
to directory-coherent machines, and reuses this module's
``_materialize_l1`` and fallback exception.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.params import INSTRS_PER_ILINE

__all__ = ["VectorizedUnsupported", "replay_uniprocessor"]


class VectorizedUnsupported(Exception):
    """Raised when a trace/machine falls outside the kernel's contract.

    ``System._run_numpy`` catches this and falls back to the
    scalar fast loop, so callers never observe it.  The only known
    trigger is a hand-built trace containing an instruction fetch with
    the write flag set (the OLTP generator never emits one).
    """


# ---------------------------------------------------------------------------
# Cached per-trace views
# ---------------------------------------------------------------------------

class _DmSchedule:
    """Exact L2 activity for one direct-mapped L2 geometry."""

    __slots__ = (
        "vic", "wb_m", "l2m_i", "l2m_m",
        "final_set", "final_lines", "final_dirty", "final_fillw",
        "_vic_lists",
    )

    def __init__(self, tv: "_TraceView", l2_n: int):
        lines, flags, warm, n = tv.lines, tv.flags, tv.warm, tv.n
        s2 = lines % l2_n
        order = np.argsort(s2, kind="stable")
        so_l = lines[order]
        so_s = s2[order]
        newg = np.zeros(n, dtype=bool)
        newg[0] = True
        newg[1:] = so_s[1:] != so_s[:-1]
        chg = newg.copy()
        chg[1:] |= so_l[1:] != so_l[:-1]
        starts = np.flatnonzero(chg)
        so_w = flags[order] & 1
        span_dirty = np.maximum.reduceat(so_w, starts)
        span_fillw = so_w[starts]
        span_idx = np.cumsum(chg) - 1

        ev_so = np.flatnonzero(chg & ~newg)
        pos_ev = order[ev_so]
        vic_dirty = span_dirty[span_idx[ev_so] - 1] != 0

        pos_change = order[starts]
        vic = np.full(n, -1, dtype=np.int64)
        vic[pos_change] = -2
        vic[pos_ev] = so_l[ev_so - 1]
        self.vic = vic

        self.wb_m = int(np.count_nonzero(vic_dirty & (pos_ev >= warm)))
        mi = pos_change >= warm
        is_i = (flags[pos_change] & 2) != 0
        self.l2m_i = int(np.count_nonzero(mi & is_i))
        self.l2m_m = int(np.count_nonzero(mi & ~is_i))

        gends = np.append(np.flatnonzero(newg)[1:] - 1, n - 1)
        self.final_set = so_s[gends].tolist()
        self.final_lines = so_l[gends].tolist()
        self.final_dirty = (span_dirty[span_idx[gends]] != 0).tolist()
        self.final_fillw = (span_fillw[span_idx[gends]] != 0).tolist()
        self._vic_lists: Optional[tuple] = None

    def vic_lists(self, warm: int):
        """Per-phase victim lists (-1 hit, -2 miss, else the victim)."""
        if self._vic_lists is None:
            self._vic_lists = (
                self.vic[:warm].tolist(), self.vic[warm:].tolist()
            )
        return self._vic_lists


class _TraceView:
    """Numpy projection of an :class:`OltpTrace`, cached per trace."""

    __slots__ = (
        "n", "warm", "lines", "flags",
        "i_refs_m", "d_refs_m", "writes_m", "kinstr_m",
        "_lists", "_s1", "_dm",
    )

    def __init__(self, trace):
        chunks = [np.frombuffer(q.refs, dtype=np.int64) for q in trace.quanta]
        refs = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
        self.n = len(refs)
        self.warm = sum(len(q.refs) for q in trace.quanta[:trace.warmup_quanta])
        self.lines = refs >> 4
        self.flags = refs & 15
        if np.any((self.flags & 3) == 3):
            raise VectorizedUnsupported(
                "trace contains an instruction fetch with the write flag set"
            )

        mf = self.flags[self.warm:]
        is_i = (mf & 2) != 0
        self.i_refs_m = int(np.count_nonzero(is_i))
        self.d_refs_m = int(len(mf) - self.i_refs_m)
        self.writes_m = int(np.count_nonzero(~is_i & ((mf & 1) != 0)))
        self.kinstr_m = int(np.count_nonzero(is_i & ((mf & 4) != 0)))

        self._lists: Optional[tuple] = None
        self._s1: Dict[int, tuple] = {}
        self._dm: Dict[int, _DmSchedule] = {}

    def lists(self):
        """Per-phase (lines, flags) python lists."""
        if self._lists is None:
            w = self.warm
            self._lists = (
                self.lines[:w].tolist(), self.lines[w:].tolist(),
                self.flags[:w].tolist(), self.flags[w:].tolist(),
            )
        return self._lists

    def s1_lists(self, l1_n: int):
        """Per-phase L1 set-index lists for an ``l1_n``-set L1."""
        cached = self._s1.get(l1_n)
        if cached is None:
            s1 = self.lines % l1_n
            cached = self._s1[l1_n] = (
                s1[:self.warm].tolist(), s1[self.warm:].tolist()
            )
        return cached

    def dm(self, l2_n: int) -> _DmSchedule:
        sched = self._dm.get(l2_n)
        if sched is None:
            sched = self._dm[l2_n] = _DmSchedule(self, l2_n)
        return sched


#: Most-recently-used trace views; identity-keyed with a weakref guard
#: so a recycled id never serves stale arrays.
_VIEW_CACHE: List[Tuple[int, "weakref.ref", _TraceView]] = []
_VIEW_CACHE_SIZE = 2


def _view_for(trace) -> _TraceView:
    for i, (tid, ref, view) in enumerate(_VIEW_CACHE):
        if tid == id(trace) and ref() is trace:
            if i:
                _VIEW_CACHE.insert(0, _VIEW_CACHE.pop(i))
            return view
    view = _TraceView(trace)
    try:
        ref = weakref.ref(trace)
    except TypeError:  # pragma: no cover - OltpTrace is weakref-able
        return view
    _VIEW_CACHE.insert(0, (id(trace), ref, view))
    del _VIEW_CACHE[_VIEW_CACHE_SIZE:]
    return view


# ---------------------------------------------------------------------------
# L1 walks (flat two-way arrays; -1 marks an empty way)
# ---------------------------------------------------------------------------

def _walk_dm(lines, flags, s1s, vics, l1_n, ia, ib, da, db):
    """Replay one phase against the L1s with a precomputed L2 schedule.

    ``vics`` holds, per reference, -1 (L2 hit), -2 (L2 miss with no
    victim) or the L2 victim line to purge from the L1s.  Returns
    ``(i_hits, d_hits)``.
    """
    i_hit = d_hit = 0
    for line, f, s, v in zip(lines, flags, s1s, vics):
        if f & 2:
            if ia[s] == line:
                i_hit += 1
                continue
            if ib[s] == line:
                ib[s] = ia[s]
                ia[s] = line
                i_hit += 1
                continue
            if v >= 0:
                vs = v % l1_n
                if ia[vs] == v:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == v:
                    ib[vs] = -1
                if da[vs] == v:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == v:
                    db[vs] = -1
            ib[s] = ia[s]
            ia[s] = line
        else:
            if da[s] == line:
                d_hit += 1
                continue
            if db[s] == line:
                db[s] = da[s]
                da[s] = line
                d_hit += 1
                continue
            if v >= 0:
                vs = v % l1_n
                if ia[vs] == v:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == v:
                    ib[vs] = -1
                if da[vs] == v:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == v:
                    db[vs] = -1
            db[s] = da[s]
            da[s] = line
    return i_hit, d_hit


def _walk_scalar(lines, flags, s1s, l1_n, l2_n, l2_assoc,
                 ia, ib, da, db, sets2, dirty2, fw):
    """Joint L1 + associative-L2 walk.

    Mirrors ``_run_fast`` operation for operation, inclusion purges
    included, on the L2's own ``sets2``/``dirty2`` lists; ``fw`` tracks
    each resident line's fill-was-write flag for the directory.
    Returns ``(i_hits, d_hits, l2m_i, l2m_d, writebacks)``.
    """
    i_hit = d_hit = l2m_i = l2m_d = wb = 0
    for line, f, s in zip(lines, flags, s1s):
        if f & 2:
            if ia[s] == line:
                i_hit += 1
                continue
            if ib[s] == line:
                ib[s] = ia[s]
                ia[s] = line
                i_hit += 1
                continue
            i2 = line % l2_n
            ways2 = sets2[i2]
            if line in ways2:
                if ways2[0] != line:
                    ways2.remove(line)
                    ways2.insert(0, line)
            else:
                if len(ways2) >= l2_assoc:
                    victim = ways2.pop()
                    ds = dirty2[i2]
                    if victim in ds:
                        ds.remove(victim)
                        wb += 1
                    vs = victim % l1_n
                    if ia[vs] == victim:
                        ia[vs] = ib[vs]
                        ib[vs] = -1
                    elif ib[vs] == victim:
                        ib[vs] = -1
                    if da[vs] == victim:
                        da[vs] = db[vs]
                        db[vs] = -1
                    elif db[vs] == victim:
                        db[vs] = -1
                    fw.pop(victim, None)
                ways2.insert(0, line)
                fw[line] = False
                l2m_i += 1
            ib[s] = ia[s]
            ia[s] = line
        else:
            if da[s] == line:
                d_hit += 1
                if f & 1:
                    dirty2[line % l2_n].add(line)
                continue
            if db[s] == line:
                db[s] = da[s]
                da[s] = line
                d_hit += 1
                if f & 1:
                    dirty2[line % l2_n].add(line)
                continue
            i2 = line % l2_n
            ways2 = sets2[i2]
            if line in ways2:
                if ways2[0] != line:
                    ways2.remove(line)
                    ways2.insert(0, line)
                if f & 1:
                    dirty2[i2].add(line)
            else:
                if len(ways2) >= l2_assoc:
                    victim = ways2.pop()
                    ds = dirty2[i2]
                    if victim in ds:
                        ds.remove(victim)
                        wb += 1
                    vs = victim % l1_n
                    if ia[vs] == victim:
                        ia[vs] = ib[vs]
                        ib[vs] = -1
                    elif ib[vs] == victim:
                        ib[vs] = -1
                    if da[vs] == victim:
                        da[vs] = db[vs]
                        db[vs] = -1
                    elif db[vs] == victim:
                        db[vs] = -1
                    fw.pop(victim, None)
                ways2.insert(0, line)
                if f & 1:
                    dirty2[i2].add(line)
                fw[line] = bool(f & 1)
                l2m_d += 1
            db[s] = da[s]
            da[s] = line
    return i_hit, d_hit, l2m_i, l2m_d, wb


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _materialize_l1(cache, flat_a, flat_b) -> None:
    for s, ways in enumerate(cache._sets):
        ways.clear()
        a = flat_a[s]
        if a != -1:
            ways.append(a)
            b = flat_b[s]
            if b != -1:
                ways.append(b)


def replay_uniprocessor(system, trace, protocol, net) -> None:
    """Replay ``trace`` and populate ``system`` state and counters.

    The caller (``System._run_numpy``) guarantees a materialized trace
    and a single-node, single-core, in-order machine with no victim
    buffer, TLB, RAC or fault plan.
    """
    node = system.nodes[0]
    l1i, l1d, l2 = node.l1i, node.l1d, node.l2
    if l1i.assoc != 2 or l1d.assoc != 2:
        raise VectorizedUnsupported("kernel assumes the paper's 2-way L1s")
    l1_n = l1i.num_sets
    l2_n = l2.num_sets
    l2_assoc = l2.assoc

    # Observability: the kernel has no quantum loop (it replays out of
    # trace order), so it publishes three synthetic phase spans from
    # perf_counter checkpoints instead of live nested spans — and pays
    # nothing when tracing is disabled.
    tracer = system._tracer
    traced = tracer.enabled
    t_start = perf_counter() if traced else 0.0

    tv = _view_for(trace)
    if tv.n == 0:
        return
    lines_w, lines_m, flags_w, flags_m = tv.lists()
    s1_w, s1_m = tv.s1_lists(l1_n)
    t_views = perf_counter() if traced else 0.0

    ia = [-1] * l1_n
    ib = [-1] * l1_n
    da = [-1] * l1_n
    db = [-1] * l1_n
    sets2 = l2._sets
    dirty2 = l2._dirty
    sharers = protocol.directory._sharers
    owner = protocol.directory._owner

    if l2_assoc == 1:
        # The L2's activity is a precomputed schedule, so only the L1s
        # are walked: a direct-mapped L2 holds the last line referenced
        # in each set.
        sched = tv.dm(l2_n)
        vic_w, vic_m = sched.vic_lists(tv.warm)
        l2m_i, l2m_d, wb_m = sched.l2m_i, sched.l2m_m, sched.wb_m
        _walk_dm(lines_w, flags_w, s1_w, vic_w, l1_n, ia, ib, da, db)
        i_hit, d_hit = _walk_dm(lines_m, flags_m, s1_m, vic_m,
                                l1_n, ia, ib, da, db)

        # Final L2 + directory state straight from the schedule.
        for s, line, dirty, fillw in zip(sched.final_set, sched.final_lines,
                                         sched.final_dirty,
                                         sched.final_fillw):
            sets2[s].append(line)
            if dirty:
                dirty2[s].add(line)
            sharers[line] = {0}
            if fillw:
                owner[line] = 0
    else:
        # The L2 is replayed scalar, jointly with the L1s, since
        # inclusion purges couple the levels.  The walk leaves the
        # final L2 state in place; the directory follows it.
        fw: Dict[int, bool] = {}
        _walk_scalar(lines_w, flags_w, s1_w, l1_n, l2_n, l2_assoc,
                     ia, ib, da, db, sets2, dirty2, fw)
        i_hit, d_hit, l2m_i, l2m_d, wb_m = _walk_scalar(
            lines_m, flags_m, s1_m, l1_n, l2_n, l2_assoc,
            ia, ib, da, db, sets2, dirty2, fw)
        for ways in sets2:
            for line in ways:
                sharers[line] = {0}
        for line, w in fw.items():
            if w:
                owner[line] = 0

    t_walk = perf_counter() if traced else 0.0

    _materialize_l1(l1i, ia, ib)
    _materialize_l1(l1d, da, db)

    # -- measured statistics, assembled to match _run_fast bit-for-bit --
    i_refs = tv.i_refs_m
    d_refs = tv.d_refs_m
    i_miss = i_refs - i_hit
    d_miss = d_refs - d_hit
    l2_misses = l2m_i + l2m_d
    l2_hits = (i_miss + d_miss) - l2_misses

    system.l1.i_refs += i_refs
    system.l1.i_misses += i_miss
    system.l1.d_refs += d_refs
    system.l1.d_misses += d_miss
    system.l2_hits += l2_hits
    system.writes += tv.writes_m
    system.misses.i_local += l2m_i
    system.misses.d_local += l2m_d
    protocol.writebacks += wb_m
    net.counters.local_requests += l2_misses

    # The latency-free profile; System.run retimes it
    # (repro.core.profile).
    cpu = system.cpus[0]
    cpu.busy = i_refs * INSTRS_PER_ILINE
    cpu.kernel_busy = tv.kinstr_m * INSTRS_PER_ILINE
    cpu.l2_hits = l2_hits
    cpu.local = l2_misses

    if traced:
        t_end = perf_counter()
        tracer.add_span("uni.views", t_start, t_views - t_start)
        tracer.add_span("uni.walk", t_views, t_walk - t_views)
        tracer.add_span("uni.finalize", t_walk, t_end - t_walk)

"""Staged replay: every numpy run, one node or many.

This module is phases 2–4 of the staged replay pipeline; phase 1 is
:func:`repro.trace.census.sharing_census`.  The pipeline replaces the
reference-interleaved scalar loop of ``System._run_fast`` for
multiprocessor machines while remaining **value-identical** by
construction (the differential and golden suites enforce it):

1. **Census** — flatten the trace, classify every line as provably
   private to one node or potentially shared (in-order RAC-free
   machines only; the others ignore the class), and pre-compute
   per-reference effective flags (write/instr + private + local-home
   bits + home node).
2. **Private hierarchy** — replay each scheduling quantum's
   references through flat per-node cache state.  Private lines never
   interact with another node: their misses and upgrades are counted
   without consulting the directory.
3. **Coherence** — shared-line misses, evictions and write-upgrades
   are serviced as they occur, on the real directory, by a
   transcription of :class:`~repro.coherence.protocol.DirectoryProtocol`:
   inline in the walks for its RAC-free paths, or through
   :class:`_Service` (RAC paths included) for RAC machines and
   out-of-order CPUs.
4. **Timing** — the walks charge no cycles: they tally each CPU's
   busy time, L2 hits, local and RAC service and hop-resolved remote
   service into the run's :class:`~repro.core.profile.MemoryProfile`,
   which ``System.run`` retimes for any latency table and topology.
   For an out-of-order CPU, ``_walk_ordered`` also logs every L2 hit
   and serviced event in order (an
   :class:`~repro.core.profile.OrderedProfile`), which the retime
   replays through the CPU model.

Both numpy engine names replay here: ``vectorized-mp`` for
multiprocessors, ``vectorized`` for a uniprocessor, which is the
one-node case.  On one node every line is private and local, so the
census never sorts the stream, the walks take the private-line path
for every miss, and a write hit takes no ownership upgrade (the
scalar loop skips ``ensure_owner`` when ``num_nodes == 1``).  Every
out-of-order numpy run is timed from its ordered profile.

Servicing at the reference is exact: it performs the scalar loop's
protocol calls in the scalar loop's order.  Private lines are exact
by the census guarantee: no second node ever touches them, so the
directory would only ever record this node's own fills and
evictions, which the engine reconstructs when it copies the flat
caches back at the end of the run.

The walks model the 2-way L1s that ``System`` always builds
(``L1_ASSOC``).  A trace with an instruction fetch that carries the
write flag raises :class:`~repro.integrity.errors.TraceMismatchError`
here, as it does on the scalar loop.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import List

import numpy as np

from repro.core.profile import (
    EV_HOPS,
    EV_L2_HIT,
    EV_LOCAL,
    EV_RAC_HIT,
    REC_SHIFT,
    OrderedProfile,
)
from repro.integrity.errors import TraceMismatchError
from repro.params import INSTRS_PER_ILINE
from repro.stats.breakdown import MissBreakdown
from repro.trace.census import sharing_census
from repro.trace.stream import WRITE_FETCH

__all__ = ["replay_multiprocessor"]


# Effective flag word: the trace's write (1) and instruction (2) bits,
# two census bits, then the reference's hop-tally row: the home node
# the protocol reports (the requester itself for a local line), plus
# the node count for an instruction fetch.  The words of machines with
# up to 8 nodes stay below 256, inside CPython's small-int cache, so
# the per-reference lists hold shared objects.
EFF_PRIVATE = 4  # line provably touched by a single node
EFF_LOCAL = 8    # line's home is the requesting node (or replicated)
EFF_HOME_SHIFT = 4

MODE_DM = 0     # direct-mapped: flat occupant-per-set array
MODE_ASSOC = 2  # set-associative LRU: list-of-lists, mirrors SetAssocCache


class _NodeState:
    """Flat per-node cache state.

    ``invalidate`` mirrors ``NodeCaches.invalidate`` exactly and also
    drops the copy in the node's
    :class:`~repro.memsys.rac.RemoteAccessCache` ``rac``, as
    ``DirectoryProtocol._invalidate_node`` does; the walks call it
    when another node's miss or upgrade must strip this node's copy of
    a *shared* line.
    """

    __slots__ = (
        "mode", "ia", "ib", "da", "db", "dmset", "resident", "sets2",
        "dirty", "owned", "l1_n", "l2_n", "l2_assoc", "rac",
    )

    def __init__(self, mode: int, l1_n: int, l2_n: int, l2_assoc: int,
                 rac=None):
        self.mode = mode
        self.l1_n = l1_n
        self.l2_n = l2_n
        self.l2_assoc = l2_assoc
        self.ia = [-1] * l1_n
        self.ib = [-1] * l1_n
        self.da = [-1] * l1_n
        self.db = [-1] * l1_n
        self.dmset = [-1] * l2_n if mode == MODE_DM else None
        # ASSOC mode keeps a flat membership set alongside the per-set
        # LRU lists so hit/miss probes hash instead of scanning ways.
        self.resident = set() if mode == MODE_ASSOC else None
        self.sets2 = (
            [[] for _ in range(l2_n)] if mode == MODE_ASSOC else None
        )
        self.dirty = set()
        self.owned = set()
        self.rac = rac

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` everywhere; True when dirty data was lost.

        L1 lines are never dirty in the fast representation (write
        hits mark the L2 copy), so dirtiness is L2-level only —
        exactly like ``NodeCaches.invalidate`` on scalar-engine state.
        """
        if self.mode == MODE_DM:
            s2 = line % self.l2_n
            if self.dmset[s2] == line:
                self.dmset[s2] = -1
        else:
            r = self.resident
            if line in r:
                r.remove(line)
                self.sets2[line % self.l2_n].remove(line)
        s = line % self.l1_n
        ia, ib = self.ia, self.ib
        if ia[s] == line:
            ia[s] = ib[s]
            ib[s] = -1
        elif ib[s] == line:
            ib[s] = -1
        da, db = self.da, self.db
        if da[s] == line:
            da[s] = db[s]
            db[s] = -1
        elif db[s] == line:
            db[s] = -1
        self.owned.discard(line)
        lost = self.rac is not None and self.rac.invalidate(line)
        dirty = self.dirty
        if line in dirty:
            dirty.remove(line)
            return True
        return lost


class _Service:
    """Past-the-L1 service for RAC machines and out-of-order CPUs.

    :meth:`miss` transcribes ``DirectoryProtocol.handle_eviction``,
    ``service_miss`` and ``_rac_evict``, RAC paths included, onto the
    flat node states, the directory's own dicts (``dsh`` maps line ->
    sharer set, ``down`` line -> owning node) and each RAC's cache
    sets, moving every counter the RAC objects keep as their methods
    would; :meth:`upgrade` is ``ensure_owner`` for a write hit at a
    node that does not own the line (the ordered walk skips it on a
    one-node machine, as the scalar loop does).
    These machines skip the census' private-line shortcut, so the
    directory tracks every line.  An out-of-order CPU's events go into
    the ordered log through ``rec``; the counts fold into each walk's
    totals (:meth:`totals`).
    """

    COUNTS = ("l2h", "l_i", "l_d", "u_l", "inv", "intervs", "wbacks")
    __slots__ = ("states", "directory", "dsh", "down", "nn", "rec", "base",
                 *COUNTS)

    def __init__(self, states, directory, nn, rec):
        self.states = states
        self.directory = directory
        self.dsh = directory._sharers
        self.down = directory._owner
        self.nn = nn
        self.rec = rec
        self.base = 0  # the ordered walk's first position
        for name in self.COUNTS:
            setattr(self, name, 0)

    def totals(self, i_l1m, d_l1m, *counts) -> tuple:
        """A walk's totals plus this service's counts, which restart."""
        out = (i_l1m, d_l1m) + tuple(
            c + getattr(self, name) for c, name in zip(counts, self.COUNTS))
        for name in self.COUNTS:
            setattr(self, name, 0)
        return out

    def own(self, nid: int, line: int) -> None:
        """Invalidate every other copy and make ``nid`` the owner."""
        s = self.dsh.get(line)
        if s:
            for other in tuple(s):
                if other != nid:
                    self.states[other].invalidate(line)
                    self.inv += 1
        self.dsh[line] = {nid}
        self.down[line] = nid

    def upgrade(self, nid, line, f, pos, cpu) -> None:
        """A write hit at a node that does not own ``line``: take
        ownership (``ensure_owner``) and log the upgrade."""
        self.own(nid, line)
        if f & 8:
            self.u_l += 1
            ev = EV_LOCAL
        else:
            cpu.hops[2 * self.nn + (f >> 4)] += 1
            ev = EV_HOPS + 2 * self.nn + (f >> 4)
        self.rec(pos << REC_SHIFT | ev)

    def miss(self, st, nid, line, f, s2, cpu, pos=0) -> None:
        """An L2 miss of ``line`` (flag word ``f``) at node ``nid``."""
        dsh = self.dsh
        down = self.down
        dirty = st.dirty
        rac = st.rac
        dmset = st.dmset
        if dmset is not None:
            victim = dmset[s2]
            dmset[s2] = line
        else:
            ways = st.sets2[s2]
            victim = -1
            if len(ways) >= st.l2_assoc:
                victim = ways.pop()
                st.resident.remove(victim)
            ways.insert(0, line)
            st.resident.add(line)
        if victim != -1:
            vs = victim % st.l1_n
            ia, ib, da, db = st.ia, st.ib, st.da, st.db
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
            vdirty = victim in dirty
            if vdirty:
                dirty.remove(victim)
            if rac is not None and victim in rac.cache._sets[
                    victim % rac.cache.num_sets]:
                # The node keeps its copy in the RAC (which holds
                # remote-home lines only); dirty data migrates there.
                if vdirty:
                    rac.cache._dirty[victim % rac.cache.num_sets].add(victim)
            else:
                self.wbacks += vdirty
                s = dsh.get(victim)
                if s is not None:
                    s.discard(nid)
                    if not s:
                        del dsh[victim]
                    if down.get(victim) == nid:
                        del down[victim]
        write = f & 1
        if write:
            dirty.add(line)
        nn = self.nn
        row = f >> 4
        ev = EV_LOCAL
        slot = None  # the hop-tally slot of a remote event
        from_rac = False  # dirty data out of the owner's RAC
        owner = down.get(line)
        probe = rac is not None and not f & 8
        hit = False
        if probe:
            # RemoteAccessCache.lookup: a write hit dirties the copy.
            rac.probes += 1
            rcache = rac.cache
            ri = line % rcache.num_sets
            rways = rcache._sets[ri]
            hit = line in rways
            if hit:
                rcache.hits += 1
                rac.hits += 1
                if rways[0] != line:
                    rways.remove(line)
                    rways.insert(0, line)
                if write:
                    rcache._dirty[ri].add(line)
            else:
                rcache.misses += 1
        if hit:
            if not write or owner == nid:
                cpu.rac_hits += 1
                ev = EV_RAC_HIT
            else:
                # A write to a shared RAC copy takes ownership from the
                # home: priced like an upgrade, counted as a miss.
                self.own(nid, line)
                slot = 3 * nn + 2 * nn * nn + row
        else:
            if owner == nid:
                # Stale ownership (should be unreachable — evictions
                # notify the directory); recover like the protocol.
                self.directory.remove_node(line, nid)
                owner = None
            if owner is not None:
                # A remote node owns the line: intervene.
                self.intervs += 1
                ost = self.states[owner]
                orac = ost.rac
                in_l2 = line in ost.dirty
                if orac is not None:
                    odirty = orac.cache._dirty[line % orac.cache.num_sets]
                    from_rac = not in_l2 and line in odirty
                if write:
                    ost.invalidate(line)
                    self.inv += 1
                    dsh[line] = {nid}
                    down[line] = nid
                else:
                    if in_l2:
                        ost.dirty.remove(line)  # downgrade
                    if orac is not None:
                        odirty.discard(line)
                    self.wbacks += in_l2 or from_rac  # sharing writeback
                    del down[line]
                    s = dsh.get(line)
                    if s is None:
                        dsh[line] = {nid}
                    else:
                        s.add(nid)
                if in_l2 or from_rac:
                    slot = 3 * nn + row * nn + owner
            elif write:
                self.own(nid, line)
            else:
                s = dsh.get(line)
                if s is None:
                    dsh[line] = {nid}
                else:
                    s.add(nid)
            if slot is None and not f & 8:
                slot = row
            if probe:
                # Allocate in the RAC (SetAssocCache.fill).  The probe
                # just missed, and nothing since touched this node's
                # RAC, so the line is not resident.
                if len(rways) >= rcache.assoc:
                    rvictim = rways.pop()
                    rcache.evictions += 1
                    rdset = rcache._dirty[ri]
                    rdirty = rvictim in rdset
                    if rdirty:
                        rdset.remove(rvictim)
                        rcache.writebacks += 1
                    if (rvictim not in st.resident if dmset is None
                            else dmset[rvictim % st.l2_n] != rvictim):
                        # The node no longer holds the victim at all.
                        self.wbacks += rdirty
                        self.directory.remove_node(rvictim, nid)
                rways.insert(0, line)
                if write:
                    rcache._dirty[ri].add(line)
        if slot is None:
            if f & 2:
                self.l_i += 1
            else:
                self.l_d += 1
        else:
            cpu.hops[slot] += 1
            ev = EV_HOPS + slot
            if from_rac:
                cpu.rac_dirty += 1
                ev += nn + 2 * nn * nn  # see repro.core.profile.EV_HOPS
        if self.rec is not None:
            self.rec(pos << REC_SHIFT | ev)


# ---------------------------------------------------------------------------
# The walks.  One inner loop per L2 shape — ``_walk_dm`` for a
# direct-mapped L2, ``_walk_assoc`` for a set-associative one — with
# the same structure, mirroring ``_run_fast`` reference for reference.
#
# Shared-line coherence is serviced *inline*, transcribing the
# RAC-free ``DirectoryProtocol`` paths (``service_miss`` /
# ``ensure_owner`` / ``handle_eviction``) onto the directory's own
# dicts: ``dsh`` maps line -> sharer set, ``down`` line -> owning
# node.  Aggregate counts replace per-event ``ServiceOutcome``
# objects; in-order stall accounting is commutative, so sums per
# latency class lose nothing.  A RAC machine's L2 misses go to its
# :class:`_Service` ``xs`` (``None`` otherwise).
#
# Remote service is counted only into ``hv``, the requesting CPU's
# hop-resolved tally (:class:`repro.core.profile.CpuProfile` layout for
# ``nn`` nodes): the flag word's high bits are the event's tally row
# (home node, instruction or data), and 3-hop misses add the dirty
# owner.  One list increment per remote event replaces a per-kind
# counter, so the hop paths cost the walks nothing extra.
#
# Each walk returns ``(i_l1m, d_l1m, l2h, l_i, l_d, u_l, inv_msgs,
# intervs, wbacks)``: L1I/L1D *misses* (hits are the quantum's ref
# counts minus these, so the hot hit path carries no counter), L2
# hits, local-memory instruction and data misses, local ownership
# upgrades, then invalidation messages, interventions and writebacks
# — with the tally, everything the protocol, network and
# miss-breakdown counters need.
# ---------------------------------------------------------------------------


def _walk_dm(L, E, S1, S2, nid, states, directory, cpu, nn, xs):
    st = states[nid]
    ia, ib, da, db = st.ia, st.ib, st.da, st.db
    dmset = st.dmset
    dirty = st.dirty
    owned = st.owned
    l1_n = st.l1_n
    dsh = directory._sharers
    down = directory._owner
    dsh_get = dsh.get
    down_get = down.get
    hv = cpu.hops
    up = 2 * nn
    rdb = 3 * nn
    mp = nn > 1  # one node: a write hit takes no ownership upgrade
    i_l1m = d_l1m = l2h = l_i = l_d = u_l = 0
    inv_msgs = intervs = wbacks = 0
    for line, f, s1, s2 in zip(L, E, S1, S2):
        if f & 2:
            a = ia[s1]
            if a == line or ib[s1] == line:
                if a != line:
                    ib[s1] = a
                    ia[s1] = line
                continue
        else:
            a = da[s1]
            if a == line or db[s1] == line:
                if a != line:
                    db[s1] = a
                    da[s1] = line
                if f & 1:
                    dirty.add(line)
                    if f & 4:
                        if mp and line not in owned:
                            owned.add(line)
                            if f & 8:
                                u_l += 1
                            else:
                                hv[up + (f >> 4)] += 1
                    elif down_get(line) != nid:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                        if f & 8:
                            u_l += 1
                        else:
                            hv[up + (f >> 4)] += 1
                continue
        occ = dmset[s2]
        if occ == line:
            l2h += 1
            if f & 1:
                dirty.add(line)
                if f & 4:
                    if mp and line not in owned:
                        owned.add(line)
                        if f & 8:
                            u_l += 1
                        else:
                            hv[up + (f >> 4)] += 1
                elif down_get(line) != nid:
                    s = dsh_get(line)
                    if s:
                        for other in tuple(s):
                            if other != nid:
                                states[other].invalidate(line)
                                inv_msgs += 1
                    dsh[line] = {nid}
                    down[line] = nid
                    if f & 8:
                        u_l += 1
                    else:
                        hv[up + (f >> 4)] += 1
        elif xs is not None:
            xs.miss(st, nid, line, f, s2, cpu)
        else:
            if occ != -1:
                if occ in dirty:
                    dirty.remove(occ)
                    wbacks += 1
                vs = occ % l1_n
                if ia[vs] == occ:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == occ:
                    ib[vs] = -1
                if da[vs] == occ:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == occ:
                    db[vs] = -1
                owned.discard(occ)
                s = dsh_get(occ)
                if s is not None:
                    s.discard(nid)
                    if not s:
                        del dsh[occ]
                    if down_get(occ) == nid:
                        del down[occ]
            dmset[s2] = line
            if f & 1:
                dirty.add(line)
            if f & 4:
                if not f & 8:
                    hv[f >> 4] += 1
                elif f & 2:
                    l_i += 1
                else:
                    l_d += 1
                if f & 1:
                    owned.add(line)
            else:
                o = down_get(line)
                if o == nid:
                    # Stale ownership (should be unreachable —
                    # evictions notify the directory); recover like
                    # the protocol.
                    directory.remove_node(line, nid)
                    o = None
                if o is not None:
                    # A remote node owns the line: intervene.
                    intervs += 1
                    ost = states[o]
                    odirty = line in ost.dirty
                    if f & 1:
                        ost.invalidate(line)
                        inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        if odirty:
                            ost.dirty.remove(line)  # downgrade
                            wbacks += 1  # sharing writeback to home
                        del down[line]
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if odirty:
                        hv[rdb + (f >> 4) * nn + o] += 1
                    elif not f & 8:
                        hv[f >> 4] += 1
                    elif f & 2:
                        l_i += 1
                    else:
                        l_d += 1
                else:
                    if f & 1:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if not f & 8:
                        hv[f >> 4] += 1
                    elif f & 2:
                        l_i += 1
                    else:
                        l_d += 1
        if f & 2:
            i_l1m += 1
            ib[s1] = ia[s1]
            ia[s1] = line
        else:
            d_l1m += 1
            db[s1] = da[s1]
            da[s1] = line
    return i_l1m, d_l1m, l2h, l_i, l_d, u_l, inv_msgs, intervs, wbacks


def _walk_assoc(L, E, S1, S2, nid, states, directory, cpu, nn, xs):
    st = states[nid]
    ia, ib, da, db = st.ia, st.ib, st.da, st.db
    sets2 = st.sets2
    resident = st.resident
    dirty = st.dirty
    owned = st.owned
    l1_n = st.l1_n
    l2_assoc = st.l2_assoc
    dsh = directory._sharers
    down = directory._owner
    dsh_get = dsh.get
    down_get = down.get
    hv = cpu.hops
    up = 2 * nn
    rdb = 3 * nn
    mp = nn > 1  # one node: a write hit takes no ownership upgrade
    i_l1m = d_l1m = l2h = l_i = l_d = u_l = 0
    inv_msgs = intervs = wbacks = 0
    for line, f, s1, s2 in zip(L, E, S1, S2):
        if f & 2:
            a = ia[s1]
            if a == line or ib[s1] == line:
                if a != line:
                    ib[s1] = a
                    ia[s1] = line
                continue
        else:
            a = da[s1]
            if a == line or db[s1] == line:
                if a != line:
                    db[s1] = a
                    da[s1] = line
                if f & 1:
                    dirty.add(line)
                    if f & 4:
                        if mp and line not in owned:
                            owned.add(line)
                            if f & 8:
                                u_l += 1
                            else:
                                hv[up + (f >> 4)] += 1
                    elif down_get(line) != nid:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                        if f & 8:
                            u_l += 1
                        else:
                            hv[up + (f >> 4)] += 1
                continue
        ways2 = sets2[s2]
        if line in resident:
            l2h += 1
            if ways2[0] != line:
                ways2.remove(line)
                ways2.insert(0, line)
            if f & 1:
                dirty.add(line)
                if f & 4:
                    if mp and line not in owned:
                        owned.add(line)
                        if f & 8:
                            u_l += 1
                        else:
                            hv[up + (f >> 4)] += 1
                elif down_get(line) != nid:
                    s = dsh_get(line)
                    if s:
                        for other in tuple(s):
                            if other != nid:
                                states[other].invalidate(line)
                                inv_msgs += 1
                    dsh[line] = {nid}
                    down[line] = nid
                    if f & 8:
                        u_l += 1
                    else:
                        hv[up + (f >> 4)] += 1
        elif xs is not None:
            xs.miss(st, nid, line, f, s2, cpu)
        else:
            if len(ways2) >= l2_assoc:
                victim = ways2.pop()
                resident.remove(victim)
                if victim in dirty:
                    dirty.remove(victim)
                    wbacks += 1
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
                owned.discard(victim)
                s = dsh_get(victim)
                if s is not None:
                    s.discard(nid)
                    if not s:
                        del dsh[victim]
                    if down_get(victim) == nid:
                        del down[victim]
            ways2.insert(0, line)
            resident.add(line)
            if f & 1:
                dirty.add(line)
            if f & 4:
                if not f & 8:
                    hv[f >> 4] += 1
                elif f & 2:
                    l_i += 1
                else:
                    l_d += 1
                if f & 1:
                    owned.add(line)
            else:
                o = down_get(line)
                if o == nid:
                    # Stale ownership (should be unreachable —
                    # evictions notify the directory); recover like
                    # the protocol.
                    directory.remove_node(line, nid)
                    o = None
                if o is not None:
                    # A remote node owns the line: intervene.
                    intervs += 1
                    ost = states[o]
                    odirty = line in ost.dirty
                    if f & 1:
                        ost.invalidate(line)
                        inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        if odirty:
                            ost.dirty.remove(line)  # downgrade
                            wbacks += 1  # sharing writeback to home
                        del down[line]
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if odirty:
                        hv[rdb + (f >> 4) * nn + o] += 1
                    elif not f & 8:
                        hv[f >> 4] += 1
                    elif f & 2:
                        l_i += 1
                    else:
                        l_d += 1
                else:
                    if f & 1:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if not f & 8:
                        hv[f >> 4] += 1
                    elif f & 2:
                        l_i += 1
                    else:
                        l_d += 1
        if f & 2:
            i_l1m += 1
            ib[s1] = ia[s1]
            ia[s1] = line
        else:
            d_l1m += 1
            db[s1] = da[s1]
            da[s1] = line
    return i_l1m, d_l1m, l2h, l_i, l_d, u_l, inv_msgs, intervs, wbacks


# ---------------------------------------------------------------------------
# The ordered walk, for out-of-order CPUs on either L2 shape.  Their
# overlapping misses make order matter, so every L2 hit and serviced
# event goes into the ordered log at its quantum position; past the
# L1s, everything runs through the :class:`_Service`.
# ---------------------------------------------------------------------------


def _walk_ordered(L, E, S1, S2, nid, states, directory, cpu, nn, xs):
    st = states[nid]
    ia, ib, da, db = st.ia, st.ib, st.da, st.db
    dmset, sets2, resident = st.dmset, st.sets2, st.resident
    dirty = st.dirty
    down_get = directory._owner.get
    mp = nn > 1  # one node: a write hit takes no ownership upgrade
    rec = xs.rec
    i_l1m = d_l1m = l2h = 0
    for pos, (line, f, s1, s2) in enumerate(zip(L, E, S1, S2), xs.base):
        if f & 2:
            a = ia[s1]
            if a == line or ib[s1] == line:
                if a != line:
                    ib[s1] = a
                    ia[s1] = line
                continue
        else:
            a = da[s1]
            if a == line or db[s1] == line:
                if a != line:
                    db[s1] = a
                    da[s1] = line
                if f & 1:
                    dirty.add(line)
                    if mp and down_get(line) != nid:
                        xs.upgrade(nid, line, f, pos, cpu)
                continue
        if dmset is not None:
            hit = dmset[s2] == line
        else:
            hit = line in resident
            if hit:
                ways2 = sets2[s2]
                if ways2[0] != line:
                    ways2.remove(line)
                    ways2.insert(0, line)
        if hit:
            l2h += 1
            if f & 1:
                dirty.add(line)
                if mp and down_get(line) != nid:
                    xs.upgrade(nid, line, f, pos, cpu)
            rec(pos << REC_SHIFT | EV_L2_HIT)
        else:
            xs.miss(st, nid, line, f, s2, cpu, pos)
        if f & 2:
            i_l1m += 1
            ib[s1] = ia[s1]
            ia[s1] = line
        else:
            d_l1m += 1
            db[s1] = da[s1]
            da[s1] = line
    return i_l1m, d_l1m, l2h, 0, 0, 0, 0, 0, 0


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _remote_counts(hops: List[int], n: int) -> tuple:
    """A hop tally's event totals: 2-hop data misses (RAC ownership
    misses included) and instruction misses, 2-hop upgrades, 3-hop
    data and instruction misses."""
    rd = 3 * n
    ru = rd + 2 * n * n
    return (sum(hops[:n]) + sum(hops[ru:]), sum(hops[n:2 * n]),
            sum(hops[2 * n:rd]), sum(hops[rd:rd + n * n]),
            sum(hops[rd + n * n:ru]))


def _materialize_l1(cache, flat_a, flat_b) -> None:
    for s, ways in enumerate(cache._sets):
        ways.clear()
        a = flat_a[s]
        if a != -1:
            ways.append(a)
            b = flat_b[s]
            if b != -1:
                ways.append(b)


def _per_quantum_counts(mask: np.ndarray, q_off: np.ndarray) -> List[int]:
    """Per-quantum sums of a boolean mask via cumulative differences."""
    c = np.concatenate(([0], np.cumsum(mask)))
    return (c[q_off[1:]] - c[q_off[:-1]]).tolist()


def _derived(sc, key, build, cap=4):
    """Fetch/build an entry in the census' derived-projection cache.

    Entries are keyed ``(family, *params)``; at most ``cap`` entries
    per family are kept (the large per-L2-geometry lists would
    otherwise accumulate across a config sweep).
    """
    d = sc.derived
    v = d.get(key)
    if v is None:
        kin = [k for k in d if k[0] == key[0]]
        if len(kin) >= cap:
            for k in kin:
                del d[k]
        v = d[key] = build()
    return v


def replay_multiprocessor(system, trace, protocol, counters) -> None:
    """Replay ``trace`` on ``system``'s machine, staged and exact.

    The caller (``System._run_numpy``) guarantees a materialized
    trace and a one-core-per-node machine with no victim buffer, TLB
    or fault plan; a uniprocessor is the one-node case.  The run's
    profile counts land in ``system.cpus``; an out-of-order run also
    leaves its ordered log in ``system.ordered``.
    """
    machine = system.machine
    nodes = system.nodes
    node0 = nodes[0]
    nnodes = machine.num_nodes
    l2_assoc = machine.l2_assoc
    l1_n = node0.l1i.num_sets
    l2_n = node0.l2.num_sets
    warmup_end = trace.warmup_quanta
    cpus = system.cpus
    racs = system.racs

    # Observability: spans and the per-quantum sampler are bound by
    # System.run; both default to inert objects, so the hot loops pay
    # one flag test per phase segment (tracing) and one None test per
    # quantum (metrics) when disabled.
    tracer = system._tracer
    traced = tracer.enabled
    sampler = system._sampler

    with tracer.span("mp.census", refs=trace.total_refs):
        sc = sharing_census(trace, machine.cores_per_node)
        q_off = sc.q_offsets
        flags = sc.flags
        lines = sc.lines

        def _build_base():
            return (
                sc.q_nodes.tolist(),
                _per_quantum_counts((flags & 2) != 0, q_off),
                _per_quantum_counts((flags & 6) == 6, q_off),
                _per_quantum_counts((flags & 3) == 1, q_off),
                (q_off[1:] - q_off[:-1]).tolist(),
                q_off[:-1].tolist(),
                lines.tolist(),
            )

        (q_nodes, n_i_q, n_ki_q, n_w_q,
         q_len, q_start, L_all) = _derived(sc, ("base",), _build_base)
        S1_all = _derived(
            sc, ("s1", l1_n), lambda: (lines % l1_n).tolist(), cap=2
        )

    # RAC machines and out-of-order CPUs replay every line through the
    # directory (see _Service): their flag words carry no private bit,
    # and the census never classifies their lines.
    general = racs is not None or machine.cpu_model == "ooo"
    shift = (trace.page_bytes // 64).bit_length() - 1

    def _text_refs():
        # A binary search over the few text pages per reference: about
        # 3x faster than np.isin, which sorts the whole stream.
        tp = np.sort(np.fromiter(trace.text_pages, dtype=np.int64,
                                 count=len(trace.text_pages)))
        if not len(tp):
            return np.zeros(len(lines), dtype=bool)
        pages = lines >> shift
        return tp[np.minimum(np.searchsorted(tp, pages), len(tp) - 1)] == pages

    def _build_eff():
        if np.any((flags & 3) == 3):
            raise TraceMismatchError(WRITE_FETCH)
        home = (lines >> shift) % nnodes
        local = home == sc.nodes
        if machine.replicate_code and trace.text_pages:
            local = local | _text_refs()
        eff = (
            (flags & 3)
            | (local.astype(np.int64) * EFF_LOCAL)
            | ((np.where(local, sc.nodes, home)
                + nnodes * ((flags & 2) != 0)) << EFF_HOME_SHIFT)
        )
        if not general:
            # On one node every line is private, and the census is
            # never sorted.
            eff |= (EFF_PRIVATE if nnodes == 1
                    else sc.private.astype(np.int64) * EFF_PRIVATE)
        return eff.tolist()

    with tracer.span("mp.census", phase="projections"):
        E_all = _derived(
            sc, ("eff", nnodes, machine.replicate_code, general), _build_eff,
            cap=2,
        )
        S2_all = _derived(
            sc, ("s2", l2_n), lambda: (lines % l2_n).tolist(), cap=2
        )
        if nnodes > 1 and racs is None and not machine.replicate_code:
            # Whether this profile also serves the replicated machine
            # (see MemoryProfile.serves): the instruction references
            # are exactly the text-page references.
            system.code_separable = _derived(
                sc, ("separable", shift), lambda: bool(np.array_equal(
                    _text_refs(), (flags & 2) != 0)))
    mode = MODE_DM if l2_assoc == 1 else MODE_ASSOC
    walk = _walk_dm if mode == MODE_DM else _walk_assoc
    states = [_NodeState(mode, l1_n, l2_n, l2_assoc, rac)
              for rac in racs or [None] * nnodes]
    # The run begins with an empty directory and only this engine
    # writes to it.
    directory = protocol.directory
    xs = rec = None
    if machine.cpu_model == "ooo":
        walk = _walk_ordered
        rec = array("q")
    if general:
        xs = _Service(states, directory, nnodes,
                      None if rec is None else rec.append)

    i_refs = i_miss = d_refs = d_miss = l2hits = writes = 0
    t_walk = t_coh = t_charge = 0.0
    loop_start = perf_counter() if traced else 0.0
    for qi in range(len(q_len)):
        if qi == warmup_end:
            system._measurement_boundary(
                protocol, counters, i_refs, i_miss, d_refs, d_miss,
                l2hits, writes,
            )
            i_refs = i_miss = d_refs = d_miss = l2hits = writes = 0
            tally_seen = [(0,) * 5] * nnodes
            remote = [0] * 5
        start = q_start[qi]
        end = start + q_len[qi]
        nid = q_nodes[qi]
        # Read the CPU's tallies fresh: the boundary above resets them.
        cpu = cpus[nid]
        if rec is not None:
            xs.base = start
        if traced:
            t0 = perf_counter()
        res = walk(L_all[start:end], E_all[start:end], S1_all[start:end],
                   S2_all[start:end], nid, states, directory, cpu, nnodes,
                   xs)
        if traced:
            t1 = perf_counter()
            t_walk += t1 - t0
        if xs is not None:
            res = xs.totals(*res)
        i_l1m, d_l1m, l2h, l_i, l_d, u_l, inv_msgs, intervs, wbacks = res
        # Apply the quantum's local-service aggregates exactly as
        # service_miss / ensure_owner / tally_service would have, in
        # bulk; remote service sits in the hop tally until the run
        # ends.  Read the stats objects fresh: the boundary above swaps
        # them out.
        if l_i or l_d or u_l or inv_msgs or intervs or wbacks:
            m = system.misses
            m.i_local += l_i
            m.d_local += l_d
            protocol.upgrades += u_l
            protocol.invalidations += inv_msgs
            protocol.interventions += intervs
            protocol.writebacks += wbacks
            counters.local_requests += l_i + l_d + u_l
            counters.invalidations += inv_msgs
            cpu.local += l_i + l_d + u_l
        if traced:
            t2 = perf_counter()
            t_coh += t2 - t1
        n_i = n_i_q[qi]
        cpu.l2_hits += l2h
        cpu.busy += n_i * INSTRS_PER_ILINE
        cpu.kernel_busy += n_ki_q[qi] * INSTRS_PER_ILINE
        if traced:
            t_charge += perf_counter() - t2
        n = q_len[qi]
        i_refs += n_i
        d_refs += n - n_i
        i_miss += i_l1m
        d_miss += d_l1m
        l2hits += l2h
        writes += n_w_q[qi]
        if sampler is not None and qi >= warmup_end:
            # The series wants cumulative remote misses per quantum:
            # add this CPU's tally growth since it last ran.
            now = _remote_counts(cpu.hops, nnodes)
            remote = [r + a - b
                      for r, a, b in zip(remote, now, tally_seen[nid])]
            tally_seen[nid] = now
            rc_d, rc_i, _, rd_d, rd_i = remote
            m = system.misses
            system._sample(qi, MissBreakdown(
                i_local=m.i_local, i_remote=rc_i + rd_i, d_local=m.d_local,
                d_remote_clean=rc_d, d_remote_dirty=rd_d,
            ), i_refs)

    if traced:
        # Aggregate phase spans reconstructed from accumulated segment
        # timings; laid out sequentially from the loop start so they
        # nest inside the live engine span (their sum <= elapsed).
        tracer.add_span("mp.walks", loop_start, t_walk, mode="batch",
                        walk=walk.__name__[len("_walk_"):],
                        path="inline" if xs is None else "service",
                        refs=len(L_all))
        tracer.add_span("mp.coherence", loop_start + t_walk, t_coh,
                        mode="batch")
        tracer.add_span("mp.timing", loop_start + t_walk + t_coh,
                        t_charge, mode="batch")

    # Remote misses and upgrades of the measured phase, from the tallies.
    m = system.misses
    for cpu in cpus:
        rc_d, rc_i, upg, rd_d, rd_i = _remote_counts(cpu.hops, nnodes)
        m.i_remote += rc_i + rd_i
        m.d_remote_clean += rc_d
        m.d_remote_dirty += rd_d
        protocol.upgrades += upg
        counters.requests_2hop += rc_d + rc_i + upg
        counters.requests_3hop += rd_d + rd_i
    if rec is not None:
        system.ordered = OrderedProfile.from_records(
            warmup_end, q_off, sc.q_nodes, flags, rec)

    # ---- materialize flat state back into the real objects --------------
    with tracer.span("mp.materialize"):
        if general:
            priv = ()
        elif nnodes == 1:
            priv = None  # every line is private
        else:
            priv = set(sc.uniq[sc.uniq_private].tolist())
        for nid, (node, st) in enumerate(zip(nodes, states)):
            _materialize_l1(node.l1i, st.ia, st.ib)
            _materialize_l1(node.l1d, st.da, st.db)
            l2_sets = node.l2._sets
            if mode == MODE_DM:
                for s2, occ in enumerate(st.dmset):
                    l2_sets[s2][:] = () if occ == -1 else (occ,)
            else:
                for s2, ways in enumerate(st.sets2):
                    l2_sets[s2][:] = ways
            l2_dirty = node.l2._dirty
            for dset in l2_dirty:
                dset.clear()
            for ln in st.dirty:
                l2_dirty[ln % l2_n].add(ln)
            # Private lines never consulted the directory during the
            # run; reconstruct the entries _run_fast would have left
            # behind.
            owned = st.owned
            for ln in node.l2.resident_lines():
                if priv is None or ln in priv:
                    if ln in owned:
                        directory.set_owner(ln, nid)
                    else:
                        directory.add_sharer(ln, nid)

    system._flush_counters(i_refs, i_miss, d_refs, d_miss, l2hits, writes)

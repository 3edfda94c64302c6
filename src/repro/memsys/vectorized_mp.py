"""Staged multiprocessor replay: the ``vectorized-mp`` engine.

This module is phases 2–4 of the staged replay pipeline; phase 1 is
:func:`repro.trace.census.sharing_census`.  The pipeline replaces the
reference-interleaved scalar loop of ``System._run_fast`` for
multiprocessor machines while remaining **value-identical** by
construction (the differential and golden suites enforce it):

1. **Census** — classify every line as provably private to one node
   or potentially shared, and pre-compute per-reference effective
   flags (write/instr + private + local-home bits + home node).
2. **Private hierarchy** — replay each scheduling quantum's
   references through flat per-node cache state.  Private lines never
   interact with the directory: their misses and upgrades are
   aggregated into four counters per quantum and charged in bulk.
3. **Coherence** — shared-line misses, evictions and write-upgrades
   are serviced as they occur.  Batch mode inlines a flat
   transcription of the no-RAC
   :class:`~repro.coherence.protocol.DirectoryProtocol` paths onto
   plain dicts (sharer sets and owners keyed by line) directly in the
   walks, accumulating aggregate counters instead of per-event
   outcome objects; the real directory is materialized from the flat
   entries when the run ends.  Stream mode emits compact events
   (``EV_MISS``/``EV_EVICT``/``EV_WCHECK``) serviced through
   :class:`repro.coherence.core.CoherenceCore` against the unchanged
   protocol object.
4. **Timing** — batch mode charges no cycles: it tallies each CPU's
   busy time, L2 hits, local service and hop-resolved remote service
   into the run's :class:`~repro.core.profile.MemoryProfile`, which
   ``System.run`` retimes.  Stream mode charges deferred timing
   records through the CPU models (:mod:`repro.cpu.timing`) once per
   quantum.

Batching the coherence work to the quantum boundary is exact because
of two structural facts: only the scheduled node issues requests
within a quantum, and (without RACs) the protocol never reads or
mutates the *requester's* caches — it only touches other, idle,
nodes.  Private lines are exact by the census guarantee: no second
node ever touches them, so the directory would only ever record this
node's own fills and evictions, which the engine reconstructs at the
end of the run.

Two execution modes cover the machine space:

=========== ============================== ================================
mode        machines                       coherence and timing
=========== ============================== ================================
batch       in-order CPUs, no RAC, any     inlined no-RAC protocol on flat
            topology (Figures 6, 8, 10,    per-node state; latency-free
            the islands/chiplet scenarios) counts, retimed per machine
stream      OOO CPUs or RAC machines       CoherenceCore events against the
                                           real caches; cycles charged per
                                           quantum through the CPU models
=========== ============================== ================================

OOO timing is order-sensitive, and a RAC is probed and filled in the
requester's own node mid-quantum; neither fits the batch walks.
Topology does not matter to batch mode: a remote event's cost depends
only on its (home, owner) hop path, which the walks count.

Anything the engine cannot replay raises
:class:`~repro.memsys.vectorized.VectorizedUnsupported` *before
mutating any state*, and ``System`` falls back to the scalar loop.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

import numpy as np

from repro.coherence.core import EV_EVICT, EV_MISS, EV_WCHECK, CoherenceCore
from repro.cpu.timing import charge_quantum_inorder, charge_quantum_ooo
from repro.memsys.vectorized import VectorizedUnsupported, _materialize_l1
from repro.params import INSTRS_PER_ILINE
from repro.stats.breakdown import MissBreakdown
from repro.trace.census import sharing_census

__all__ = ["replay_multiprocessor"]

# Batch-mode effective flag word: the trace's write (1) and
# instruction (2) bits, two census bits, then the reference's hop-tally
# row: the home node the protocol reports (the requester itself for a
# local line), plus the node count for an instruction fetch.  The
# words of machines with up to 8 nodes stay below 256, inside
# CPython's small-int cache, so the per-reference lists hold shared
# objects.
EFF_PRIVATE = 4  # line provably touched by a single node
EFF_LOCAL = 8    # line's home is the requesting node (or replicated)
EFF_HOME_SHIFT = 4

MODE_DM = 0     # direct-mapped: flat occupant-per-set array
MODE_ASSOC = 2  # set-associative LRU: list-of-lists, mirrors SetAssocCache


class _NodeState:
    """Flat per-node cache state with coherence entry points.

    ``invalidate``/``downgrade``/``holds``/``holds_dirty`` mirror
    :class:`~repro.memsys.hierarchy.NodeCaches` semantics exactly;
    the batch walks drive them when another node's miss or upgrade
    must strip this node's copy of a *shared* line.
    """

    __slots__ = (
        "mode", "ia", "ib", "da", "db", "dmset", "resident", "sets2",
        "dirty", "owned", "l1_n", "l2_n", "l2_assoc",
    )

    def __init__(self, mode: int, l1_n: int, l2_n: int, l2_assoc: int):
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

    # -- coherence entry points (mirror NodeCaches semantics exactly) ---

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
        dirty = self.dirty
        if line in dirty:
            dirty.remove(line)
            return True
        return False

    def downgrade(self, line: int) -> bool:
        """Demote to shared/clean; True when the line was dirty."""
        dirty = self.dirty
        if line in dirty:
            dirty.remove(line)
            return True
        return False

    def holds(self, line: int) -> bool:
        if self.mode == MODE_DM:
            return self.dmset[line % self.l2_n] == line
        return line in self.resident

    def holds_dirty(self, line: int) -> bool:
        return line in self.dirty


# ---------------------------------------------------------------------------
# Batch-mode walks.  One inner loop per L2 shape — ``_walk_dm`` for a
# direct-mapped L2, ``_walk_assoc`` for a set-associative one — with
# the same structure, mirroring ``_run_fast`` reference for reference.
#
# Shared-line coherence is serviced *inline*, transcribing the no-RAC
# ``DirectoryProtocol`` paths (``service_miss`` / ``ensure_owner`` /
# ``handle_eviction``) onto plain dicts: ``dsh`` maps line -> sharer
# set, ``down`` maps line -> owning node — the exact payload of
# ``DirectoryState``, materialized into the real directory when the
# run ends.  Inlining is sound because a node's own service actions
# never touch its own cache state, and the walk never reads the
# directory on its fast paths, so inline-at-the-reference equals the
# scalar engine's service-in-trace-order exactly.  Aggregate counts
# replace per-event ``ServiceOutcome`` objects; in-order stall
# accounting is commutative, so sums per latency class lose nothing.
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


def _walk_dm(L, E, S1, S2, nid, states, dsh, down, hv, nn):
    st = states[nid]
    ia, ib, da, db = st.ia, st.ib, st.da, st.db
    dmset = st.dmset
    dirty = st.dirty
    owned = st.owned
    l1_n = st.l1_n
    dsh_get = dsh.get
    down_get = down.get
    up = 2 * nn
    rdb = 3 * nn
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
                        if line not in owned:
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
                    if line not in owned:
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
                    s = dsh_get(line)
                    if s is not None:
                        s.discard(nid)
                        if not s:
                            del dsh[line]
                        if down_get(line) == nid:
                            del down[line]
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


def _walk_assoc(L, E, S1, S2, nid, states, dsh, down, hv, nn):
    st = states[nid]
    ia, ib, da, db = st.ia, st.ib, st.da, st.db
    sets2 = st.sets2
    resident = st.resident
    dirty = st.dirty
    owned = st.owned
    l1_n = st.l1_n
    l2_assoc = st.l2_assoc
    dsh_get = dsh.get
    down_get = down.get
    up = 2 * nn
    rdb = 3 * nn
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
                        if line not in owned:
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
        if ways2 and ways2[0] == line:
            # MRU slot — the common L2 hit — without a way scan.
            l2h += 1
            if f & 1:
                dirty.add(line)
                if f & 4:
                    if line not in owned:
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
        elif line in resident:
            l2h += 1
            ways2.remove(line)
            ways2.insert(0, line)
            if f & 1:
                dirty.add(line)
                if f & 4:
                    if line not in owned:
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
                    s = dsh_get(line)
                    if s is not None:
                        s.discard(nid)
                        if not s:
                            del dsh[line]
                        if down_get(line) == nid:
                            del down[line]
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
# Stream-mode walk: real cache objects, events serviced inline (the
# protocol may probe/fill the requester's RAC mid-quantum), timing
# still deferred to the per-quantum charge functions.
# ---------------------------------------------------------------------------


def _walk_stream(L, F, node, node_id, core, timing, ooo, lat_l2hit,
                 l2_assoc):
    l1i, l1d, l2 = node.l1i, node.l1d, node.l2
    l1i_sets = l1i._sets
    l1i_n = l1i.num_sets
    l1d_sets = l1d._sets
    l1d_n = l1d.num_sets
    l2_sets = l2._sets
    l2_n = l2.num_sets
    l2_dirty = l2._dirty
    service_one = core.service_one
    i_l1m = d_l1m = l2h = 0
    for pos in range(len(L)):
        line = L[pos]
        f = F[pos]
        if f & 2:
            ways = l1i_sets[line % l1i_n]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                continue
            i_l1m += 1
            l1_assoc_here = l1i.assoc
        else:
            ways = l1d_sets[line % l1d_n]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                if f & 1:
                    l2_dirty[line % l2_n].add(line)
                    service_one(node_id, EV_WCHECK, pos, line, f, timing)
                continue
            d_l1m += 1
            l1_assoc_here = l1d.assoc

        idx2 = line % l2_n
        ways2 = l2_sets[idx2]
        if line in ways2:
            l2h += 1
            if ways2[0] != line:
                ways2.remove(line)
                ways2.insert(0, line)
            if f & 1:
                l2_dirty[idx2].add(line)
                service_one(node_id, EV_WCHECK, pos, line, f, timing)
            if ooo:
                timing.append((pos, lat_l2hit, 0, f & 8, f & 2))
        else:
            if len(ways2) >= l2_assoc:
                victim = ways2.pop()
                vdirty_set = l2_dirty[idx2]
                if victim in vdirty_set:
                    vdirty_set.remove(victim)
                    vd = 1
                else:
                    vd = 0
                vways = l1i_sets[victim % l1i_n]
                if victim in vways:
                    vways.remove(victim)
                vways = l1d_sets[victim % l1d_n]
                if victim in vways:
                    vways.remove(victim)
                service_one(node_id, EV_EVICT, pos, victim, vd, timing)
            ways2.insert(0, line)
            if f & 1:
                l2_dirty[idx2].add(line)
            service_one(node_id, EV_MISS, pos, line, f, timing)

        if len(ways) >= l1_assoc_here:
            ways.pop()
        ways.insert(0, line)
    return i_l1m, d_l1m, l2h


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _remote_counts(hops: List[int], n: int) -> tuple:
    """A hop tally's event totals: 2-hop data and instruction misses,
    2-hop upgrades, 3-hop data and instruction misses."""
    rd = 3 * n
    return (sum(hops[:n]), sum(hops[n:2 * n]), sum(hops[2 * n:rd]),
            sum(hops[rd:rd + n * n]), sum(hops[rd + n * n:]))


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


def replay_multiprocessor(system, trace, protocol, net) -> None:
    """Replay ``trace`` on a multiprocessor machine, staged and exact.

    The caller (``System._run_vectorized_mp``) guarantees a
    one-core-per-node machine with no victim buffer, TLB or fault
    plan; RACs and OOO CPUs route to stream mode internally.

    A chunk-streamed trace is materialized here: the census pre-pass
    and the staged walks traverse the trace multiple times, and
    collection reconstructs the exact trace, so streamed results stay
    value-identical to materialized ones.
    """
    from repro.trace.stream import is_streaming

    if is_streaming(trace):
        trace = trace.collect()
    machine = system.machine
    nodes = system.nodes
    node0 = nodes[0]
    if node0.l1i.assoc != 2 or node0.l1d.assoc != 2:
        raise VectorizedUnsupported(
            "the multiprocessor kernel models 2-way L1s only"
        )

    nnodes = machine.num_nodes
    ooo = machine.cpu_model == "ooo"
    # Batch mode charges no cycles: it tallies the run's latency-free
    # profile, counting remote service events per (home, owner) hop
    # path, and System.run retimes it for any topology.  OOO timing is
    # order-sensitive and RACs change service mid-quantum, so those
    # machines stream through CoherenceCore with cycles charged inline.
    stream = ooo or system.racs is not None
    l2_assoc = machine.l2_assoc
    l1_n = node0.l1i.num_sets
    l2_n = node0.l2.num_sets
    warmup_end = trace.warmup_quanta
    cpus = system.cpus

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

    i_refs = i_miss = d_refs = d_miss = l2hits = writes = 0

    if stream:
        lat_l2hit = machine.latencies.l2_hit
        core = CoherenceCore(protocol, net, system.misses.record)
        timing: list = []
        with tracer.span("mp.census", phase="projections"):
            F_all = _derived(sc, ("flags",), flags.tolist)
        racs = system.racs
        dir_sharers = protocol.directory._sharers
        t_walk = t_charge = 0.0
        loop_start = perf_counter() if traced else 0.0
        for qi in range(len(q_len)):
            if qi == warmup_end:
                core.record_miss = system._measurement_boundary(
                    protocol, net, i_refs, i_miss, d_refs, d_miss,
                    l2hits, writes,
                )
                i_refs = i_miss = d_refs = d_miss = l2hits = writes = 0
            start = q_start[qi]
            end = start + q_len[qi]
            nid = q_nodes[qi]
            F = F_all[start:end]
            if traced:
                t0 = perf_counter()
            i_l1m, d_l1m, l2h = _walk_stream(
                L_all[start:end], F, nodes[nid], nid, core, timing,
                ooo, lat_l2hit, l2_assoc,
            )
            if traced:
                t1 = perf_counter()
                t_walk += t1 - t0
            cpu = cpus[nid]
            n_i = n_i_q[qi]
            if ooo:
                fl = flags[start:end]
                ip = np.flatnonzero(fl & 2)
                charge_quantum_ooo(
                    cpu, timing, ip.tolist(),
                    ((fl[ip] & 4) != 0).tolist(),
                )
            else:
                charge_quantum_inorder(
                    cpu, timing, l2h, lat_l2hit, n_i, n_ki_q[qi],
                )
            if traced:
                t_charge += perf_counter() - t1
            timing.clear()
            n = q_len[qi]
            i_refs += n_i
            d_refs += n - n_i
            i_miss += i_l1m
            d_miss += d_l1m
            l2hits += l2h
            writes += n_w_q[qi]
            if sampler is not None and qi >= warmup_end:
                if racs is not None:
                    rp = sum(r.probes for r in racs)
                    rh = sum(r.hits for r in racs)
                else:
                    rp = rh = 0
                sampler.sample(qi, system.misses, i_refs,
                               len(dir_sharers), rp, rh)
        if traced:
            # Stream mode services coherence events inside the walk,
            # so walk time includes the coherence phase; the two
            # aggregate phase spans tile the loop's real window.
            tracer.add_span("mp.walks", loop_start, t_walk,
                            mode="stream", coherence="inline")
            tracer.add_span("mp.timing", loop_start + t_walk, t_charge,
                            mode="stream")
        system._flush_counters(i_refs, i_miss, d_refs, d_miss, l2hits, writes)
        return

    # ---- batch mode -----------------------------------------------------
    def _build_eff():
        if np.any((flags & 3) == 3):
            # An instruction fetch with the write flag would alias a
            # data row of the hop tally; the scalar loop replays it.
            raise VectorizedUnsupported("instruction fetch marked as write")
        shift = (trace.page_bytes // 64).bit_length() - 1
        home = (lines >> shift) % nnodes
        local = home == sc.nodes
        if machine.replicate_code and trace.text_pages:
            tp = np.fromiter(
                trace.text_pages, dtype=np.int64,
                count=len(trace.text_pages),
            )
            local = local | np.isin(lines >> shift, tp)
        eff = (
            (flags & 3)
            | (sc.private.astype(np.int64) * EFF_PRIVATE)
            | (local.astype(np.int64) * EFF_LOCAL)
            | ((np.where(local, sc.nodes, home)
                + nnodes * ((flags & 2) != 0)) << EFF_HOME_SHIFT)
        )
        return eff.tolist()

    with tracer.span("mp.census", phase="projections"):
        E_all = _derived(
            sc, ("eff", nnodes, machine.replicate_code), _build_eff, cap=2
        )
        S2_all = _derived(
            sc, ("s2", l2_n), lambda: (lines % l2_n).tolist(), cap=2
        )
    mode = MODE_DM if l2_assoc == 1 else MODE_ASSOC
    walk = _walk_dm if mode == MODE_DM else _walk_assoc
    states = [_NodeState(mode, l1_n, l2_n, l2_assoc) for _ in range(nnodes)]
    dsh: dict = {}   # line -> sharer set (DirectoryState._sharers)
    down: dict = {}  # line -> owning node (DirectoryState._owner)

    t_walk = t_coh = t_charge = 0.0
    loop_start = perf_counter() if traced else 0.0
    for qi in range(len(q_len)):
        if qi == warmup_end:
            system._measurement_boundary(
                protocol, net, i_refs, i_miss, d_refs, d_miss,
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
        hv = cpu.hops
        if traced:
            t0 = perf_counter()
        res = walk(L_all[start:end], E_all[start:end], S1_all[start:end],
                   S2_all[start:end], nid, states, dsh, down, hv, nnodes)
        if traced:
            t1 = perf_counter()
            t_walk += t1 - t0
        i_l1m, d_l1m, l2h, l_i, l_d, u_l, inv_msgs, intervs, wbacks = res
        # Apply the quantum's local-service aggregates exactly as
        # service_miss / ensure_owner / service_latency would have, in
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
            counters = net.counters
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
            now = _remote_counts(hv, nnodes)
            remote = [r + a - b
                      for r, a, b in zip(remote, now, tally_seen[nid])]
            tally_seen[nid] = now
            rc_d, rc_i, _, rd_d, rd_i = remote
            m = system.misses
            sampler.sample(qi, MissBreakdown(
                i_local=m.i_local, i_remote=rc_i + rd_i, d_local=m.d_local,
                d_remote_clean=rc_d, d_remote_dirty=rd_d,
            ), i_refs, len(dsh))

    if traced:
        # Aggregate phase spans reconstructed from accumulated segment
        # timings; laid out sequentially from the loop start so they
        # nest inside the live engine span (their sum <= elapsed).
        tracer.add_span("mp.walks", loop_start, t_walk, mode="batch")
        tracer.add_span("mp.coherence", loop_start + t_walk, t_coh,
                        mode="batch")
        tracer.add_span("mp.timing", loop_start + t_walk + t_coh,
                        t_charge, mode="batch")

    # Remote misses and upgrades of the measured phase, from the tallies.
    m = system.misses
    counters = net.counters
    for cpu in cpus:
        rc_d, rc_i, upg, rd_d, rd_i = _remote_counts(cpu.hops, nnodes)
        m.i_remote += rc_i + rd_i
        m.d_remote_clean += rc_d
        m.d_remote_dirty += rd_d
        protocol.upgrades += upg
        counters.requests_2hop += rc_d + rc_i + upg
        counters.requests_3hop += rd_d + rd_i

    # ---- materialize flat state back into the real objects --------------
    with tracer.span("mp.materialize"):
        priv = set(sc.uniq[sc.uniq_private].tolist())
        directory = protocol.directory
        # The run began with an empty directory and only this engine
        # wrote to it, so the flat shared-line entries transplant
        # wholesale.
        directory._sharers.update(dsh)
        directory._owner.update(down)
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
            if mode == MODE_DM:
                resident_iter = (occ for occ in st.dmset if occ != -1)
            else:
                resident_iter = (ln for ways in st.sets2 for ln in ways)
            for ln in resident_iter:
                if ln in priv:
                    if ln in owned:
                        directory.set_owner(ln, nid)
                    else:
                        directory.add_sharer(ln, nid)

    system._flush_counters(i_refs, i_miss, d_refs, d_miss, l2hits, writes)

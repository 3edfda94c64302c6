"""The system simulator: replays a trace against one machine config.

This is the reproduction's equivalent of SimOS-Alpha's memory-system
timing loop.  For every reference in the trace it walks the
node's L1/L2 hierarchy, invokes the directory protocol on L2 misses
and ownership upgrades, and accumulates the paper's statistics.  No
engine charges cycles: each tallies a latency-free
:class:`~repro.core.profile.MemoryProfile`, and :meth:`System.run`
returns its :func:`~repro.core.profile.retime`, the one place the
configuration's Figure-3 latencies and CPU model are applied.

Three engine names select two replay paths with identical semantics:

* ``fast`` (``_run_fast``) — the scalar loop, for every machine: chip
  multiprocessors (several cores over each node's L2), victim buffers
  and software TLBs included.  It deliberately reaches into the cache
  objects' internal set lists: at millions of references per run,
  per-access object allocation would dominate.  A plain machine's L1
  hit pays for none of the extensions: a write purges sibling cores'
  L1 copies inside its write branch, the victim buffer sits on the L2
  miss path, and each quantum's TLB walks are found in one pass ahead
  of its replay (they depend only on the CPU's page sequence).
* ``vectorized`` and ``vectorized-mp`` (both through ``_run_numpy``)
  — the staged pipeline in :mod:`repro.memsys.vectorized_mp`, for
  uniprocessors and multiprocessors respectively: a sharing-census
  pre-pass (:func:`repro.trace.census.sharing_census`) splits lines
  into provably-private and potentially-shared classes, and
  per-quantum walks replay the private hierarchy and the directory
  protocol in bulk.  A uniprocessor is the one-node case, on which
  every line is private.  Selected automatically and value-identical
  to ``_run_fast`` by contract.

The scalar loop decodes at one point,
:func:`~repro.trace.stream.iter_quanta`: numpy splits each quantum's
packed references into line and flag lists and counts its fetches,
kernel fetches and data writes, so the loop does no per-reference bit
arithmetic or counting.  It adds each quantum's busy time, L2 (and
victim-buffer) hits and TLB walks to its CPU's
:class:`~repro.core.profile.CpuProfile` at quantum end, and counts
every serviced miss or upgrade into its slot with
:func:`~repro.core.profile.tally_service`.  On an out-of-order CPU
it also logs each reference's flags and every hit, service event and
TLB walk in order, as the staged walks do: that
:class:`~repro.core.profile.OrderedProfile` is the one OOO timing
path.  A streamed in-order run keeps nothing per reference; a streamed
out-of-order run keeps its log, one flag byte per reference plus one
record per event.

:meth:`System.select_engine` is the single source of truth for the
dispatch; ``engine=`` overrides it so every path stays reachable.  The
test suite cross-checks the engines against an independent reference
implementation (``tests/core/test_reference_model.py``) and against
each other (``tests/core/test_differential.py``).
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections import OrderedDict
from typing import List, Optional

from repro.coherence.homemap import HomeMap
from repro.coherence.network import MessageCounters
from repro.coherence.protocol import DirectoryProtocol
from repro.core.machine import MachineConfig
from repro.core.profile import (
    EV_HOPS,
    EV_L2_HIT,
    EV_TLB,
    EV_VICTIM,
    REC_SHIFT,
    CpuProfile,
    MemoryProfile,
    OrderedProfile,
    retime,
    tally_service,
)
from repro.core.results import RunResult
from repro.integrity.checker import Checker, CheckLevel
from repro.integrity.errors import ConfigError, StateError, TraceMismatchError
from repro.memsys.hierarchy import NodeCaches
from repro.memsys.rac import RemoteAccessCache
from repro.obs import NULL_TRACER, current_metrics, current_tracer
from repro.params import INSTRS_PER_ILINE, L1_ASSOC, LINE_SIZE, TLB_WALK_CYCLES
from repro.stats.breakdown import L1Stats, MissBreakdown, ProtocolStats, RacStats
from repro.trace.stream import is_streaming, iter_quanta

#: Replay engines accepted by :class:`System` and :func:`simulate`.
ENGINES = ("auto", "fast", "vectorized", "vectorized-mp")


class _OrderedLog:
    """A scalar loop's ordered profile as it grows: each quantum's
    CPU, offset and flags, and the records the loop appends to
    ``rec``."""

    __slots__ = ("warmup", "q_off", "q_cpus", "flags", "rec")

    def __init__(self):
        self.warmup = 0
        self.q_off = array("q", [0])
        self.q_cpus = array("q")
        self.flags = array("B")
        self.rec = array("q")

    def positions(self, quantum) -> range:
        """Log ``quantum``; return its references' run positions."""
        start = self.q_off[-1]
        self.q_cpus.append(quantum.cpu)
        self.flags.extend(quantum.flags)
        self.q_off.append(start + quantum.refs)
        return range(start, start + quantum.refs)

    def profile(self) -> OrderedProfile:
        return OrderedProfile.from_records(
            self.warmup, self.q_off, self.q_cpus, self.flags, self.rec)


def _tlb_walks(tlb: OrderedDict, lines, page_shift: int,
               entries: int) -> List[int]:
    """Look one quantum's references up in a CPU's software-filled
    ``tlb`` (LRU over pages); return the indices of those that walk."""
    walks = []
    for i, line in enumerate(lines):
        page = line >> page_shift
        if page in tlb:
            tlb.move_to_end(page)
        else:
            walks.append(i)
            tlb[page] = True
            if len(tlb) > entries:
                tlb.popitem(last=False)
    return walks


def _log_walks(rec: array, base: int, walks) -> None:
    """Merge a quantum's TLB walks into the ordered records ``rec``, the
    quantum's own from run position ``base`` on: each walk goes ahead
    of its reference's records."""
    start = bisect_left(rec, base << REC_SHIFT)
    replayed = rec[start:]
    del rec[start:]
    rec.extend(heapq.merge(
        [(base + i) << REC_SHIFT | EV_TLB for i in walks], replayed,
        key=lambda r: r >> REC_SHIFT))


class System:
    """A single-use simulator instance for one machine configuration.

    ``check`` selects the integrity-checking tier (``"off"``,
    ``"end-of-run"``, ``"per-quantum"``; see
    :class:`~repro.integrity.checker.CheckLevel`).  ``fault_plan``
    deliberately corrupts state mid-run to mutation-test the checker
    (see :class:`~repro.integrity.faults.FaultPlan`).

    ``engine`` pins the replay engine: ``"auto"`` (default) applies
    :meth:`select_engine`, the explicit names force one path and raise
    :class:`~repro.integrity.errors.ConfigError` when the configuration
    cannot run on it.  All engines produce value-identical results
    wherever their domains overlap.

    Every engine replays without latencies: it tallies a
    :class:`~repro.core.profile.MemoryProfile` into :attr:`profile`,
    and :meth:`run` returns its :func:`~repro.core.profile.retime`.
    """

    def __init__(self, machine: MachineConfig, *, check="off",
                 fault_plan=None, engine: str = "auto"):
        n = machine.num_nodes
        if (machine.cpu_model == "ooo"
                and EV_HOPS + 4 * n * (n + 1) > 1 << REC_SHIFT):
            # An ordered-log record keeps its event class in REC_SHIFT
            # bits; the largest class of n nodes is EV_HOPS + 4n(n+1) - 1.
            raise ConfigError(
                "an out-of-order machine has at most 127 nodes; "
                f"{machine.label!r} has {n}"
            )
        self.machine = machine
        self.checker = Checker(check)
        self.fault_plan = fault_plan
        self.engine = self.select_engine(
            machine, check=check, fault_plan=fault_plan, engine=engine,
        )
        #: The run's latency-free profile, set by :meth:`run`.
        self.profile: Optional[MemoryProfile] = None
        #: An out-of-order profile's ordered log, set by the engine.
        self.ordered: Optional[OrderedProfile] = None
        #: Set by the multiprocessor engine; see MemoryProfile.
        self.code_separable = False
        with current_tracer().span("system.init", label=machine.label):
            self.nodes: List[NodeCaches] = [
                NodeCaches(
                    machine.scaled_l2_size,
                    machine.l2_assoc,
                    l1_size=machine.scaled_l1_size,
                    l1_assoc=L1_ASSOC,
                    num_cores=machine.cores_per_node,
                    victim_entries=machine.victim_entries,
                    node_id=i,
                )
                for i in range(machine.num_nodes)
            ]
            self.racs: Optional[List[RemoteAccessCache]] = None
            if machine.scaled_rac_size is not None:
                self.racs = [
                    RemoteAccessCache(machine.scaled_rac_size,
                                      machine.rac_assoc, node_id=i)
                    for i in range(machine.num_nodes)
                ]
        self.cpus = [CpuProfile(machine.num_nodes)
                     for _ in range(machine.ncpus)]
        self.misses = MissBreakdown()
        self.l1 = L1Stats()
        self.l2_hits = 0
        self.victim_hits = 0
        self.tlb_misses = 0
        self.writes = 0
        self.protocol: Optional[DirectoryProtocol] = None
        self._ran = False
        # Observability: bound per-run by run() from the process-wide
        # tracer/metrics.  The null defaults keep every engine's
        # instrumentation site a no-op when observability is off.
        self._tracer = NULL_TRACER
        self._sampler = None

    # -- engine selection ---------------------------------------------------------

    @staticmethod
    def select_engine(machine: MachineConfig, *, check="off",
                      fault_plan=None, engine: str = "auto") -> str:
        """Resolve the replay engine for a configuration.

        This is the dispatch rule ``run`` uses and the provenance the
        campaign runner records per job; it depends only on the machine
        and run options, never on the trace.
        """
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}"
            )
        if engine == "fast":
            return "fast"
        run_ok = (
            fault_plan is None
            and CheckLevel.coerce(check) is not CheckLevel.PER_QUANTUM
        )
        vector_ok = machine.vectorizable and run_ok
        mp_ok = machine.mp_vectorizable and run_ok
        if engine == "vectorized":
            if not vector_ok:
                raise ConfigError(
                    "engine='vectorized' supports only single-node, "
                    "single-core machines with no victim buffer, TLB, "
                    "RAC, fault plan or per-quantum checking"
                )
            return "vectorized"
        if engine == "vectorized-mp":
            if not mp_ok:
                raise ConfigError(
                    "engine='vectorized-mp' supports only multi-node "
                    "machines with one core per node and no victim "
                    "buffer, TLB, fault plan or per-quantum checking"
                )
            return "vectorized-mp"
        if vector_ok:
            return "vectorized"
        if mp_ok:
            return "vectorized-mp"
        return "fast"

    # -- measurement reset at the warmup boundary --------------------------------

    def _reset_measurement(self, protocol: DirectoryProtocol,
                           counters: MessageCounters) -> None:
        self.misses = MissBreakdown()
        self.l1 = L1Stats()
        self.l2_hits = 0
        self.victim_hits = 0
        self.tlb_misses = 0
        self.writes = 0
        for cpu in self.cpus:
            cpu.reset()
        for node in self.nodes:
            node.reset_stats()
        if self.racs is not None:
            for rac in self.racs:
                rac.reset_stats()
        protocol.upgrades = 0
        protocol.invalidations = 0
        protocol.writebacks = 0
        protocol.interventions = 0
        counters.reset()

    def _measurement_boundary(self, protocol: DirectoryProtocol,
                              counters: MessageCounters, i_refs, i_miss,
                              d_refs, d_miss, l2hits, writes,
                              victimhits=0):
        """Cross the warmup/measurement boundary, one way for all engines.

        Flushes the engine's run-long accumulators, zeroes every
        statistic, and returns the fresh ``misses.record`` bound method
        so engines that cache it can rebind in one step.
        """
        self._flush_counters(
            i_refs, i_miss, d_refs, d_miss, l2hits, writes, victimhits
        )
        self._reset_measurement(protocol, counters)
        return self.misses.record

    # -- public entry ---------------------------------------------------------------

    def _validate_trace(self, trace) -> None:
        """Reject traces this machine cannot meaningfully replay."""
        machine = self.machine
        if trace.ncpus != machine.ncpus:
            raise TraceMismatchError(
                f"trace was generated for {trace.ncpus} CPUs, machine has "
                f"{machine.ncpus}; regenerate the trace or pick a matching "
                "machine configuration"
            )
        page_lines = trace.page_bytes // LINE_SIZE
        if (trace.page_bytes % LINE_SIZE or page_lines < 1
                or page_lines & (page_lines - 1)):
            raise TraceMismatchError(
                f"page_bytes={trace.page_bytes} must be a power-of-two "
                f"multiple of the {LINE_SIZE} B line size"
            )
        if is_streaming(trace):
            # The quanta-dependent checks (emptiness, warmup range,
            # per-quantum CPU range) fire inside the stream's
            # validating chunk iterator as it is consumed.
            return
        if not trace.quanta:
            raise TraceMismatchError(
                "trace has no scheduling quanta; nothing to replay"
            )
        warmup = trace.warmup_quanta
        if not 0 <= warmup < len(trace.quanta):
            raise TraceMismatchError(
                f"warmup_quanta={warmup} leaves no measured quanta "
                f"(trace has {len(trace.quanta)}); lower the warmup or "
                "lengthen the trace"
            )
        bad = next((q.cpu for q in trace.quanta
                    if not 0 <= q.cpu < machine.ncpus), None)
        if bad is not None:
            raise TraceMismatchError(
                f"trace schedules CPU {bad}, but the machine has CPUs "
                f"0..{machine.ncpus - 1}"
            )

    def run(self, trace) -> RunResult:
        """Replay ``trace`` and return the measured statistics."""
        machine = self.machine
        self._validate_trace(trace)
        if self._ran:
            raise StateError("System instances are single-use; build a new one")
        self._ran = True

        tracer = self._tracer = current_tracer()
        metrics = current_metrics()
        if metrics.enabled:
            self._sampler = metrics.new_series(
                label=machine.label, engine=self.engine,
                ncpus=machine.ncpus, num_nodes=machine.num_nodes,
                l2_bytes=machine.scaled_l2_size, l2_assoc=machine.l2_assoc,
            )

        replicated = None
        if machine.replicate_code:
            text_pages = trace.text_pages
            page_lines_shift = (trace.page_bytes // 64).bit_length() - 1
            replicated = lambda line: (line >> page_lines_shift) in text_pages  # noqa: E731
        homemap = HomeMap(machine.num_nodes, trace.page_bytes, replicated)
        protocol = self.protocol = DirectoryProtocol(homemap, self.nodes, self.racs)
        counters = MessageCounters()

        with tracer.span("system.run", label=machine.label,
                         engine=self.engine, ncpus=machine.ncpus):
            with tracer.span(f"engine.{self.engine}"):
                if self.engine.startswith("vectorized"):
                    self._run_numpy(trace, protocol, counters)
                else:
                    self._run_fast(trace, protocol, counters)

            if self.checker.enabled:
                self.checker.check_system(self, protocol)
            result = self._collect(trace, protocol, counters)
            if self.checker.enabled:
                result.verify()
        return result

    # -- the numpy engines --------------------------------------------------------

    def _run_numpy(self, trace, protocol: DirectoryProtocol,
                   counters: MessageCounters) -> None:
        from repro.memsys.vectorized_mp import replay_multiprocessor

        if is_streaming(trace):
            # The kernel needs the whole reference stream at once (the
            # sharing census); a chunk iterator is accepted by
            # collecting it.
            trace = trace.collect()
        replay_multiprocessor(self, trace, protocol, counters)

    # -- the scalar loop ---------------------------------------------------------------

    def _run_fast(self, trace, protocol: DirectoryProtocol,
                  counters: MessageCounters) -> None:
        machine = self.machine
        n = machine.num_nodes
        mp = n > 1
        cores = machine.cores_per_node
        owner_get = protocol.directory._owner.get
        service_miss = protocol.service_miss
        ensure_owner = protocol.ensure_owner
        handle_eviction = protocol.handle_eviction
        record_miss = self.misses.record
        l2_assoc = machine.l2_assoc
        log = _OrderedLog() if machine.cpu_model == "ooo" else None
        rec = None if log is None else log.rec.append

        def upgrade(node_id, cpu, pos, line):
            # A write to a line another node may hold: take ownership.
            outcome = ensure_owner(node_id, line)
            if outcome is not None:
                ev = tally_service(cpu, counters, outcome, n, False)
                if rec is not None:
                    rec(pos << REC_SHIFT | ev)

        # Every node shares one geometry.  Per CPU: its node, profile
        # and L1 set lists; every L1 set list of its node (an L2
        # eviction purges them all) and its sibling cores' (a write
        # purges those; a one-core node has none); its node's L2 set
        # and dirty lists and victim buffer.
        node0 = self.nodes[0]
        l1_n, l1_assoc, l2_n = (node0.l1i.num_sets, node0.l1i.assoc,
                                node0.l2.num_sets)
        views = []
        for cpu_id, cpu in enumerate(self.cpus):
            node_id, core = divmod(cpu_id, cores)
            node = self.nodes[node_id]
            l1s = [c._sets for c in node.l1is + node.l1ds]
            views.append((node_id, cpu, l1s[core], l1s[cores + core], l1s,
                          [s for k, s in enumerate(l1s) if k % cores != core],
                          node.l2._sets, node.l2._dirty, node.victim))
        # Software-filled TLBs, one per CPU.  Their walks depend only
        # on each CPU's page sequence, so each quantum's are found in
        # one pass ahead of its replay.
        tlbs = ([OrderedDict() for _ in range(machine.ncpus)]
                if machine.tlb_entries else None)
        page_shift = (trace.page_bytes // LINE_SIZE).bit_length() - 1
        # Integrity hooks fire only at quantum boundaries, so the
        # per-reference path below stays branch-free when disabled.
        checker = self.checker if self.checker.per_quantum else None
        # Metrics likewise: one None test per quantum when disabled.
        sampler = self._sampler
        plan = self.fault_plan if (
            self.fault_plan is not None and not self.fault_plan.applied
        ) else None
        refs_done = 0
        # Run-long counters kept as plain ints for speed.
        i_refs = i_miss = d_refs = d_miss = l2hits = victimhits = writes = 0
        tlb_walks = 0

        for qi, quantum, at_boundary, measured in iter_quanta(trace):
            if at_boundary:
                record_miss = self._measurement_boundary(
                    protocol, counters, i_refs, i_miss, d_refs, d_miss,
                    l2hits, writes, victimhits,
                )
                i_refs = i_miss = d_refs = d_miss = l2hits = victimhits = 0
                writes = tlb_walks = 0
                if log is not None:
                    log.warmup = qi

            (node_id, cpu, l1i_sets, l1d_sets, l1s, others, l2_sets,
             l2_dirty, vb) = views[quantum.cpu]
            q_l2hits = l2hits
            q_victimhits = victimhits
            walks = (() if tlbs is None else _tlb_walks(
                tlbs[quantum.cpu], quantum.lines, page_shift,
                machine.tlb_entries))
            # Run positions for the ordered log; unused in order.
            positions = (range(quantum.refs) if log is None
                         else log.positions(quantum))

            for pos, line, flags in zip(positions, quantum.lines,
                                        quantum.flags):
                if flags & 2:  # instruction fetch
                    ways = l1i_sets[line % l1_n]
                    if line in ways:
                        if ways[0] != line:
                            ways.remove(line)
                            ways.insert(0, line)
                        continue
                    i_miss += 1
                else:
                    write = flags & 1
                    ways = l1d_sets[line % l1_n]
                    if line in ways:
                        if ways[0] != line:
                            ways.remove(line)
                            ways.insert(0, line)
                        if write:
                            l2_dirty[line % l2_n].add(line)
                            for sets in others:
                                oways = sets[line % l1_n]
                                if line in oways:
                                    oways.remove(line)
                            if mp and owner_get(line) != node_id:
                                upgrade(node_id, cpu, pos, line)
                        continue
                    d_miss += 1

                # ---- L1 miss: probe the L2 --------------------------------
                write = flags & 1
                idx2 = line % l2_n
                ways2 = l2_sets[idx2]
                if line in ways2:
                    l2hits += 1
                    if ways2[0] != line:
                        ways2.remove(line)
                        ways2.insert(0, line)
                    if write:
                        l2_dirty[idx2].add(line)
                        for sets in others:
                            oways = sets[line % l1_n]
                            if line in oways:
                                oways.remove(line)
                        if mp and owner_get(line) != node_id:
                            upgrade(node_id, cpu, pos, line)
                    if rec is not None:
                        rec(pos << REC_SHIFT | EV_L2_HIT)
                else:
                    # ---- L2 miss: fill, evict, consult the protocol --------
                    if len(ways2) >= l2_assoc:
                        victim = ways2.pop()
                        vdirty_set = l2_dirty[idx2]
                        if victim in vdirty_set:
                            vdirty_set.remove(victim)
                            vdirty = True
                        else:
                            vdirty = False
                        # Inclusion: purge the victim from the L1s.
                        vidx = victim % l1_n
                        for sets in l1s:
                            vways = sets[vidx]
                            if victim in vways:
                                vways.remove(victim)
                        if vb is None:
                            handle_eviction(node_id, victim, vdirty)
                        else:
                            # The victim stays on the node; a line it
                            # displaces from the buffer leaves it.
                            out = vb.insert(victim, vdirty)
                            if out is not None:
                                handle_eviction(node_id, *out)
                    ways2.insert(0, line)
                    if write:
                        l2_dirty[idx2].add(line)
                    swapped = None if vb is None else vb.extract(line)
                    if swapped is None:
                        is_instr = flags & 2
                        outcome = service_miss(node_id, line, bool(write),
                                               bool(is_instr))
                        ev = tally_service(cpu, counters, outcome, n,
                                           is_instr)
                        if rec is not None:
                            rec(pos << REC_SHIFT | ev)
                        record_miss(outcome.kind, bool(is_instr))
                    else:
                        # A victim-buffer swap-back: the line never
                        # left the node, so the protocol sees at most
                        # an ownership upgrade.
                        if swapped:
                            l2_dirty[idx2].add(line)
                        if write and mp and owner_get(line) != node_id:
                            upgrade(node_id, cpu, pos, line)
                        victimhits += 1
                        if rec is not None:
                            rec(pos << REC_SHIFT | EV_VICTIM)

                # ---- fill the L1 (clean; dirtiness lives at the L2) ---------
                if len(ways) >= l1_assoc:
                    ways.pop()
                ways.insert(0, line)

            i_refs += quantum.instr
            d_refs += quantum.refs - quantum.instr
            writes += quantum.writes
            # Each TLB walk is kernel busy time ahead of its reference.
            walk_cycles = len(walks) * TLB_WALK_CYCLES
            cpu.busy += quantum.instr * INSTRS_PER_ILINE + walk_cycles
            cpu.kernel_busy += quantum.kinstr * INSTRS_PER_ILINE + walk_cycles
            cpu.l2_hits += l2hits - q_l2hits
            cpu.victim_hits += victimhits - q_victimhits
            if walks:
                tlb_walks += len(walks)
                if log is not None:
                    _log_walks(log.rec, positions.start, walks)

            if plan is not None:
                refs_done += quantum.refs
                if refs_done >= plan.at_ref:
                    plan.apply(self, protocol)
                    plan = None
            if checker is not None:
                checker.check_system(self, protocol)
            if sampler is not None and measured:
                self._sample(qi, self.misses, i_refs)

        if plan is not None:
            plan.apply(self, protocol)
        self._flush_counters(
            i_refs, i_miss, d_refs, d_miss, l2hits, writes, victimhits
        )
        self.tlb_misses += tlb_walks
        if log is not None:
            self.ordered = log.profile()

    def _sample(self, qi: int, misses: MissBreakdown, i_refs: int) -> None:
        """Feed one measured quantum to the metrics series."""
        racs = self.racs or ()
        self._sampler.sample(qi, misses, i_refs,
                             self.protocol.directory.tracked_lines(),
                             sum(r.probes for r in racs),
                             sum(r.hits for r in racs))

    # -- result assembly -----------------------------------------------------------------

    def _flush_counters(self, i_refs, i_miss, d_refs, d_miss, l2hits, writes,
                        victimhits=0) -> None:
        self.l1.i_refs += i_refs
        self.l1.i_misses += i_miss
        self.l1.d_refs += d_refs
        self.l1.d_misses += d_miss
        self.l2_hits += l2hits
        self.victim_hits += victimhits
        self.writes += writes

    def _collect(self, trace, protocol: DirectoryProtocol,
                 counters: MessageCounters) -> RunResult:
        protocol_stats = ProtocolStats(
            upgrades=protocol.upgrades,
            invalidations=protocol.invalidations,
            writebacks=protocol.writebacks,
            interventions=protocol.interventions,
            writes=self.writes,
        )
        racs = self.racs or ()
        rac_stats = RacStats(probes=sum(r.probes for r in racs),
                             hits=sum(r.hits for r in racs))
        # For a materialized trace this is the post-warmup reference
        # sum; a consumed stream reports the identical count from its
        # validating iterator's accounting.
        trace_refs = trace.measured_refs
        measured_txns = getattr(trace, "measured_txns", 0)
        self.profile = MemoryProfile(
            num_nodes=self.machine.num_nodes,
            cpus=self.cpus,
            misses=self.misses,
            l1=self.l1,
            protocol=protocol_stats,
            rac=rac_stats,
            network=counters,
            measured_txns=measured_txns,
            l2_hits=self.l2_hits,
            trace_refs=trace_refs,
            tlb_misses=self.tlb_misses,
            victim_hits=self.victim_hits,
            ordered=self.ordered,
            replicated=(self.machine.replicate_code
                        and self.machine.num_nodes > 1),
            code_separable=self.code_separable,
        )
        return retime(self.profile, self.machine)


def simulate(machine: MachineConfig, trace, *, check="off",
             fault_plan=None, engine: str = "auto") -> RunResult:
    """Convenience wrapper: build a System, replay ``trace``, return stats.

    ``check``, ``fault_plan`` and ``engine`` pass through to
    :class:`System`.
    """
    return System(machine, check=check, fault_plan=fault_plan,
                  engine=engine).run(trace)

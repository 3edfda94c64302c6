"""Memory profiles: one replay per cache geometry, retimed per machine.

A run splits cleanly into two parts.  What the caches, the RACs, the
directory and the interconnect *do* — hits, misses, fills, upgrades,
invalidations, and which nodes each remote transaction crossed —
depends on the trace and the cache geometry only.  What it *costs*
depends on the Figure-3 latency table and the topology's per-hop
extras.  Integration level, L2 technology, topology and label never
change cache contents, so a whole integration ladder over one L2
geometry shares a single replay.

The CPU model does not change cache contents either, and neither
does OS code replication on a machine without a RAC: replication only
moves the home of the text pages, so it changes where instruction
misses are served, not which references hit, miss or invalidate.

Every replay engine tallies a profile, and :meth:`System.run
<repro.core.system.System.run>` always returns its retiming, so the
Figure-3 latencies are charged in one place: :func:`event_costs`.

* :class:`MemoryProfile` holds the latency-independent half: the
  run's counters plus, per CPU, busy time (software TLB walks
  included), L2 and victim-buffer hits, local and RAC service, and
  remote service per (stall class, upgrade, home, owner); for an
  out-of-order replay, also the events in order
  (:class:`OrderedProfile`), which an out-of-order CPU's overlap
  needs.  :meth:`MemoryProfile.serves` says which machines of its key
  it can be retimed for.
* :func:`profile_key` names the replays a profile can stand in for.
* :func:`retime` applies a machine's CPU model, code replication and
  latency model to a profile and returns the
  :class:`~repro.core.results.RunResult` a cold replay of that machine
  would produce, bit for bit.  An in-order CPU's stall cycles are sums
  of per-event latencies, and integer sums commute, so ``count x
  latency`` per event class is exact; an out-of-order CPU replays the
  ordered log through :func:`~repro.cpu.ooo.charge_quantum_ooo`, one
  loop per quantum on local variables whose float adds are a
  per-event model's, in the same order, so its sums are exact too.
"""

from __future__ import annotations

import base64
from dataclasses import asdict, dataclass, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.coherence.network import MessageCounters
from repro.coherence.protocol import ServiceOutcome
from repro.core.machine import MachineConfig
from repro.core.results import RunResult
from repro.cpu.events import (
    KERNEL_BUSY,
    STALL_L2_HIT,
    STALL_LOCAL,
    STALL_REMOTE_CLEAN,
    STALL_REMOTE_DIRTY,
)
from repro.cpu.ooo import OutOfOrderCPU, charge_quantum_ooo
from repro.obs import current_tracer
from repro.params import (
    RAC_HIT_LATENCY,
    RAC_REMOTE_DIRTY_LATENCY,
    TLB_WALK_CYCLES,
    VICTIM_HIT_EXTRA,
    MissKind,
)
from repro.stats.breakdown import (
    ExecutionBreakdown,
    L1Stats,
    MissBreakdown,
    ProtocolStats,
    RacStats,
)

__all__ = [
    "CpuProfile",
    "MemoryProfile",
    "OrderedProfile",
    "profile_key",
    "retime",
    "tally_service",
]

#: Event classes of an :class:`OrderedProfile`: an L2 hit, local
#: service (a miss or an upgrade), a RAC hit, a victim-buffer hit, a
#: software TLB walk, ``EV_HOPS + i`` for each :attr:`CpuProfile.hops`
#: slot ``i``, then one per 3-hop slot for dirty data out of the
#: owner's RAC.
EV_L2_HIT, EV_LOCAL, EV_RAC_HIT, EV_VICTIM, EV_TLB, EV_HOPS = range(6)

#: A replay packs each ordered-log record's position above its event
#: class: ``pos << REC_SHIFT | cls``.
REC_SHIFT = 16


class CpuProfile:
    """Latency-free event counts for one CPU.

    The replay engines tally into these directly (``reset`` zeroes
    them at the warmup boundary).  ``local`` counts local service
    events, ``rac_hits`` of them served out of the node's RAC;
    ``rac_dirty`` counts the 3-hop misses whose data came out of the
    owner's RAC.  ``hops`` counts the remote service events of a
    machine with ``n`` nodes per (stall class, upgrade, home, owner),
    in one flat list so the hot loops pay a single list increment per
    remote event.  With ``r = h + n*instr`` the tally row of home
    ``h`` for a data (0) or instruction (1) reference:

    * ``hops[r]`` — 2-hop misses served by home ``h``;
    * ``hops[2n + h]`` — 2-hop ownership upgrades at home ``h``;
    * ``hops[3n + r*n + o]`` — 3-hop misses via home ``h`` to dirty
      owner ``o``;
    * ``hops[3n + 2n*n + h]`` — writes that hit a shared line in the
      RAC and take ownership at home ``h`` (2-hop, like an upgrade,
      but a miss in the taxonomy).

    The instruction/data split feeds the miss taxonomy, not the
    latency.  The requester is the CPU's node, ``cpu // cores_per_node``.
    ``busy`` and ``kernel_busy`` are cycles: instruction fetches and
    software TLB walks, which cost the same on every machine.
    """

    __slots__ = ("busy", "kernel_busy", "l2_hits", "victim_hits", "local",
                 "rac_hits", "rac_dirty", "hops")

    def __init__(self, num_nodes: int):
        self.hops = [0] * (4 * num_nodes + 2 * num_nodes * num_nodes)
        self.reset()

    def reset(self) -> None:
        self.busy = self.kernel_busy = self.l2_hits = self.victim_hits = 0
        self.local = self.rac_hits = self.rac_dirty = 0
        self.hops = [0] * len(self.hops)

    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.__slots__}
        data["hops"] = list(self.hops)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CpuProfile":
        cpu = cls.__new__(cls)
        for name in cls.__slots__:
            setattr(cpu, name, data[name])
        return cpu


def tally_service(cpu: CpuProfile, counters: MessageCounters,
                  outcome: ServiceOutcome, n: int, instr) -> int:
    """Count one serviced miss or ownership upgrade of an ``n``-node
    machine into ``cpu`` and ``counters``; return its event class.

    ``instr`` marks a miss of an instruction fetch.  The slot is the
    one in :class:`CpuProfile`'s layout.  A remote upgrade outcome is
    ``via_rac`` exactly when ``service_miss`` took ownership of a
    shared line in the requester's RAC (a miss in the taxonomy);
    ``ensure_owner``'s upgrades are not.
    """
    counters.invalidations += outcome.invalidations
    kind = outcome.kind
    if kind is MissKind.LOCAL:
        counters.local_requests += 1
        cpu.local += 1
        if outcome.via_rac:
            cpu.rac_hits += 1
            return EV_RAC_HIT
        return EV_LOCAL
    home = outcome.home
    if kind is MissKind.REMOTE_CLEAN:
        counters.requests_2hop += 1
        if not outcome.upgrade:
            slot = home + n if instr else home
        elif outcome.via_rac:
            slot = 3 * n + 2 * n * n + home
        else:
            slot = 2 * n + home
    else:
        counters.requests_3hop += 1
        row = home + n if instr else home
        slot = 3 * n + row * n + outcome.dirty_owner
    cpu.hops[slot] += 1
    if outcome.from_remote_rac:
        cpu.rac_dirty += 1
        return EV_HOPS + slot + n + 2 * n * n
    return EV_HOPS + slot


#: The arrays of an :class:`OrderedProfile` and their stored dtypes.
_ORDERED_DTYPES = {"q_off": "<i8", "q_nodes": "<i4", "flags": "u1",
                   "pos": "<i4", "cls": "<i4"}


@dataclass(eq=False)
class OrderedProfile:
    """An out-of-order replay's service events, in trace order.

    * ``flags`` — the trace flag bits of every reference, warmup
      included (they give each record its dependence and instruction
      bits, and each quantum its instruction fetches); ``q_off`` splits
      them into quanta, ``q_nodes`` names each quantum's CPU and
      ``warmup`` is the first measured quantum;
    * ``pos``/``cls`` — one record per L2 or victim-buffer hit, per
      serviced miss or upgrade and per software TLB walk, in order:
      its reference's index into ``flags`` and its event class
      (``EV_*``).
    """

    warmup: int
    q_off: np.ndarray
    q_nodes: np.ndarray
    flags: np.ndarray
    pos: np.ndarray
    cls: np.ndarray

    @classmethod
    def from_records(cls, warmup: int, q_off, q_nodes, flags,
                     records) -> "OrderedProfile":
        """Build a log from a replay's buffers (anything numpy reads
        as an array); ``records`` packs each record's position above
        its event class (``pos << REC_SHIFT | cls``)."""
        r = np.asarray(records, dtype=np.int64)
        return cls(warmup=warmup, q_off=np.asarray(q_off),
                   q_nodes=np.asarray(q_nodes), flags=np.asarray(flags),
                   pos=(r >> REC_SHIFT).astype(np.int32),
                   cls=(r & ((1 << REC_SHIFT) - 1)).astype(np.int32))

    def to_dict(self) -> dict:
        """JSON-safe form: each array's little-endian bytes in base64."""
        out = {"warmup": self.warmup}
        for name, dtype in _ORDERED_DTYPES.items():
            raw = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            out[name] = base64.b64encode(raw.tobytes()).decode("ascii")
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "OrderedProfile":
        return cls(warmup=data["warmup"], **{
            name: np.frombuffer(base64.b64decode(data[name]), dtype=dtype)
            for name, dtype in _ORDERED_DTYPES.items()})


@dataclass
class MemoryProfile:
    """Everything a cold replay measures except cycles.

    ``ordered`` is the event log of a replay on an out-of-order CPU
    (``None`` otherwise).  ``replicated`` marks a multi-node walk that
    localized the text pages.  ``code_separable`` marks a RAC-free,
    non-replicated multi-node walk over a trace whose instruction
    references are exactly its text-page references.
    """

    num_nodes: int
    cpus: List[CpuProfile]
    misses: MissBreakdown
    l1: L1Stats
    protocol: ProtocolStats
    rac: RacStats
    network: MessageCounters
    measured_txns: int
    l2_hits: int
    trace_refs: int
    tlb_misses: int = 0
    victim_hits: int = 0
    ordered: Optional[OrderedProfile] = None
    replicated: bool = False
    code_separable: bool = False

    def serves(self, machine: MachineConfig) -> bool:
        """Whether :func:`retime` can charge ``machine``, a machine of
        this profile's :func:`profile_key`.

        An out-of-order machine needs the ordered log.  A replicated
        profile serves only replicated machines.  A non-replicated
        multi-node profile serves a replicated machine only when
        ``code_separable``: then no instruction line is ever written
        or read as data, so replication turns exactly the 2-hop
        instruction misses into local ones.
        """
        if machine.cpu_model == "ooo" and self.ordered is None:
            return False
        return (self.num_nodes == 1
                or machine.replicate_code == self.replicated
                or (machine.replicate_code and self.code_separable))

    def to_dict(self) -> dict:
        """JSON-safe form (the worker envelope); exact round trip."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["cpus"] = [c.to_dict() for c in self.cpus]
        for name in _STATS:
            data[name] = asdict(data[name])
        if self.ordered is not None:
            data["ordered"] = self.ordered.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryProfile":
        data = dict(data)
        data["cpus"] = [CpuProfile.from_dict(c) for c in data["cpus"]]
        for name, kind in _STATS.items():
            data[name] = kind(**data[name])
        if data["ordered"] is not None:
            data["ordered"] = OrderedProfile.from_dict(data["ordered"])
        return cls(**data)


#: The :class:`MemoryProfile` fields that hold run statistics.
_STATS = {"misses": MissBreakdown, "l1": L1Stats, "protocol": ProtocolStats,
          "rac": RacStats, "network": MessageCounters}


def profile_key(spec, machine: MachineConfig, check: str = "off") -> tuple:
    """The replay identity of a job.

    Two jobs with equal keys replay the same trace through the same
    caches (L2, RAC, victim buffer, TLB and cores per node) and leave
    the same cache contents, so one's profile retimes to the other's
    result when it :meth:`~MemoryProfile.serves` it.  The key names
    only what changes cache contents or TLB walks: not the CPU model,
    and code replication only on a RAC machine, whose RAC holds
    remote-home lines only.
    """
    rac = machine.rac_size is not None
    return (spec, machine.ncpus, machine.l2_size, machine.l2_assoc,
            machine.scale, check, machine.rac_size, machine.rac_assoc,
            rac and machine.replicate_code, machine.victim_entries,
            machine.tlb_entries, machine.cores_per_node)


def event_costs(machine: MachineConfig, node: int,
                n: int) -> Tuple[List[int], List[int]]:
    """Cycles and stall class per event class for the CPUs of ``node``
    of an ``n``-node ``machine``: the one place the Figure-3 latencies
    and the topology's per-hop extras are charged.  A TLB walk's class
    is ``KERNEL_BUSY``."""
    lat = machine.latencies
    topo = machine.topology
    # One-way extras to and from this node; all zero under a flat
    # topology.
    out = [topo.hop_extra(node, h) for h in range(n)]
    back = [topo.hop_extra(h, node) for h in range(n)]
    clean = [lat.remote_clean + 2 * x for x in out]
    upgrade = [lat.remote_upgrade + 2 * x for x in out]
    dirty = [lat.remote_dirty + out[h] + topo.hop_extra(h, o) + back[o]
             for h in range(n) for o in range(n)] * 2
    from_rac = RAC_REMOTE_DIRTY_LATENCY - 200
    cycles = ([lat.l2_hit, lat.local, RAC_HIT_LATENCY,
               lat.l2_hit + VICTIM_HIT_EXTRA, TLB_WALK_CYCLES]
              + clean * 2 + upgrade + dirty + upgrade
              + [d + from_rac for d in dirty])
    far = [STALL_REMOTE_DIRTY] * len(dirty)
    klass = ([STALL_L2_HIT, STALL_LOCAL, STALL_LOCAL, STALL_L2_HIT,
              KERNEL_BUSY]
             + [STALL_REMOTE_CLEAN] * (3 * n) + far
             + [STALL_REMOTE_CLEAN] * n + far)
    return cycles, klass


def _inorder_breakdown(cpu: CpuProfile, cycles: List[int],
                       klass: List[int]) -> ExecutionBreakdown:
    stall = [cpu.l2_hits * cycles[EV_L2_HIT]
             + cpu.victim_hits * cycles[EV_VICTIM],
             (cpu.local - cpu.rac_hits) * cycles[EV_LOCAL]
             + cpu.rac_hits * cycles[EV_RAC_HIT], 0,
             cpu.rac_dirty * (RAC_REMOTE_DIRTY_LATENCY - 200)]
    for i, count in enumerate(cpu.hops, EV_HOPS):
        if count:
            stall[klass[i]] += count * cycles[i]
    # Stall classes are the breakdown's field order after busy time.
    return ExecutionBreakdown(cpu.busy, cpu.kernel_busy, *stall)


def _ooo_breakdowns(log: OrderedProfile,
                    costs: List[Tuple[List[int], List[int]]]
                    ) -> List[ExecutionBreakdown]:
    """Replay ``log`` through fresh out-of-order CPUs, quantum by
    quantum (records become Python objects one quantum at a time),
    with the warmup boundary where the replay had it.  Positions index
    the whole run, so a quantum's records and instruction fetches
    merge exactly as quantum-relative ones would."""
    flags = log.flags
    r_off = np.searchsorted(log.pos, log.q_off).tolist()
    rflags = flags[log.pos]
    dep = (rflags & 8) != 0
    instr = (rflags & 2) != 0
    ipos = np.flatnonzero(flags & 2)
    ikern = (flags[ipos] & 4) != 0
    f_off = np.searchsorted(ipos, log.q_off).tolist()
    cycles, klass = np.array(costs).swapaxes(0, 1)
    cpus = [OutOfOrderCPU(i) for i in range(len(costs))]
    for q, c in enumerate(log.q_nodes.tolist()):
        if q == log.warmup:
            for cpu in cpus:
                cpu.reset()
        r = slice(r_off[q], r_off[q + 1])
        f = slice(f_off[q], f_off[q + 1])
        cls = log.cls[r]
        charge_quantum_ooo(
            cpus[c],
            zip(log.pos[r].tolist(), cycles[c, cls].tolist(),
                klass[c, cls].tolist(), dep[r].tolist(), instr[r].tolist()),
            ipos[f].tolist(), ikern[f].tolist())
    for cpu in cpus:
        cpu.drain()
    return [cpu.breakdown() for cpu in cpus]


def _localize_code(profile: MemoryProfile) -> MemoryProfile:
    """``profile`` as a replicated walk would have tallied it: each
    CPU's 2-hop instruction misses (``hops[n:2n]``) are served locally.
    Valid for a ``code_separable`` profile only."""
    n = profile.num_nodes
    cpus = [CpuProfile.from_dict(cpu.to_dict()) for cpu in profile.cpus]
    moved = 0
    for cpu in cpus:
        count = sum(cpu.hops[n:2 * n])
        cpu.hops[n:2 * n] = [0] * n
        cpu.local += count
        moved += count
    misses, network, ordered = profile.misses, profile.network, profile.ordered
    if ordered is not None:
        cls = ordered.cls
        code = (cls >= EV_HOPS + n) & (cls < EV_HOPS + 2 * n)
        ordered = replace(ordered,
                          cls=np.where(code, EV_LOCAL, cls).astype(cls.dtype))
    return replace(
        profile, cpus=cpus, ordered=ordered, replicated=True,
        misses=replace(misses, i_local=misses.i_local + moved,
                       i_remote=misses.i_remote - moved),
        network=replace(network,
                        local_requests=network.local_requests + moved,
                        requests_2hop=network.requests_2hop - moved))


def retime(profile: MemoryProfile, machine: MachineConfig) -> RunResult:
    """Charge ``machine`` to ``profile``: the result a cold replay of
    ``machine`` would return, bit for bit.

    ``machine`` must share the profile's :func:`profile_key` and be one
    it :meth:`~MemoryProfile.serves`.  Its CPU model picks the timing
    path; a replicated multi-node machine retimed from a
    non-replicated profile first has its instruction misses localized.
    """
    if not profile.serves(machine):
        raise ValueError(f"this profile cannot be retimed for "
                         f"{machine.label}")
    tracer = current_tracer()
    with tracer.span("retime", label=machine.label):
        if (machine.replicate_code and not profile.replicated
                and profile.num_nodes > 1):
            profile = _localize_code(profile)
        n = profile.num_nodes
        per_node = [event_costs(machine, h, n) for h in range(n)]
        cores = machine.cores_per_node
        costs = [per_node[c // cores] for c in range(len(profile.cpus))]
        if machine.cpu_model == "ooo":
            log = profile.ordered
            with tracer.span("mp.timing", mode="ordered",
                             records=len(log.pos),
                             fetches=int(np.count_nonzero(log.flags & 2))):
                per_cpu = _ooo_breakdowns(log, costs)
        else:
            per_cpu = [_inorder_breakdown(cpu, *cost)
                       for cpu, cost in zip(profile.cpus, costs)]
        total = ExecutionBreakdown()
        for b in per_cpu:
            total.add(b)
        return RunResult(
            machine=machine,
            breakdown=total,
            per_cpu=per_cpu,
            measured_txns=profile.measured_txns,
            l2_hits=profile.l2_hits,
            victim_hits=profile.victim_hits,
            tlb_misses=profile.tlb_misses,
            trace_refs=profile.trace_refs,
            **{name: kind(**asdict(getattr(profile, name)))
               for name, kind in _STATS.items()},
        )

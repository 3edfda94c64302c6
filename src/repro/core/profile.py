"""Memory profiles: one replay per cache geometry, retimed per machine.

An in-order run splits cleanly into two parts.  What the caches, the
directory and the interconnect *do* — hits, misses, fills, upgrades,
invalidations, and which nodes each remote transaction crossed —
depends on the trace and the cache geometry only.  What it *costs*
depends on the Figure-3 latency table and the topology's per-hop
extras.  Integration level, L2 technology, topology and label never
change cache contents, so a whole integration ladder over one L2
geometry shares a single replay.

* :class:`MemoryProfile` holds the latency-independent half: the
  L1/L2/protocol/network/miss counters plus, per CPU, the busy and
  kernel-busy cycles, L2 hits, local-memory service events, and the
  remote service events counted per (stall class, upgrade, home,
  owner).
* :func:`profile_key` names the replays a profile can stand in for.
* :func:`retime` applies a machine's latency model to a profile and
  returns the :class:`~repro.core.results.RunResult` a cold replay of
  that machine would produce, bit for bit: an in-order CPU's stall
  cycles are sums of per-event latencies, and integer sums commute,
  so ``count x latency`` per event class is exact.

Out-of-order CPUs (order-sensitive overlap) and RAC machines (the RAC
changes which misses are local) stay out: :func:`profiled` is false
for them and they keep charging cycles during the replay.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

from repro.coherence.network import MessageCounters
from repro.core.machine import MachineConfig
from repro.core.results import RunResult
from repro.obs import current_tracer
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
    "profile_key",
    "profiled",
    "retime",
]

#: Engines whose in-order, RAC-free replays emit a profile.
PROFILE_ENGINES = ("vectorized", "vectorized-mp")


def profiled(machine: MachineConfig, engine: str) -> bool:
    """True when ``machine`` replayed on ``engine`` yields a profile
    (and :meth:`System.run <repro.core.system.System.run>` returns
    its retiming)."""
    return (engine in PROFILE_ENGINES and machine.cpu_model == "inorder"
            and machine.rac_size is None)


class CpuProfile:
    """Latency-free event counts for one in-order CPU.

    The replay engines tally into these directly (``reset`` zeroes
    them at the warmup boundary).  ``hops`` counts the remote service
    events of a machine with ``n`` nodes per (stall class, upgrade,
    home, owner), in one flat list so the hot loops pay a single list
    increment per remote event.  With ``r = h + n*instr`` the tally
    row of home ``h`` for a data (0) or instruction (1) reference:

    * ``hops[r]`` — 2-hop misses served by home ``h``;
    * ``hops[2n + h]`` — 2-hop ownership upgrades at home ``h``;
    * ``hops[3n + r*n + o]`` — 3-hop misses via home ``h`` to dirty
      owner ``o``.

    The instruction/data split feeds the miss taxonomy, not the
    latency.  The requester is the CPU itself (profiled machines have
    one core per node).
    """

    __slots__ = ("busy", "kernel_busy", "l2_hits", "local", "hops")

    def __init__(self, num_nodes: int):
        self.busy = 0
        self.kernel_busy = 0
        self.l2_hits = 0
        self.local = 0
        self.hops = [0] * (3 * num_nodes + 2 * num_nodes * num_nodes)

    def reset(self) -> None:
        self.busy = self.kernel_busy = self.l2_hits = self.local = 0
        self.hops = [0] * len(self.hops)

    def drain(self) -> None:
        """Nothing outstanding (interface parity with the CPU models)."""

    def to_dict(self) -> dict:
        return {"busy": self.busy, "kernel_busy": self.kernel_busy,
                "l2_hits": self.l2_hits, "local": self.local,
                "hops": list(self.hops)}

    @classmethod
    def from_dict(cls, data: dict) -> "CpuProfile":
        cpu = cls.__new__(cls)
        cpu.busy = data["busy"]
        cpu.kernel_busy = data["kernel_busy"]
        cpu.l2_hits = data["l2_hits"]
        cpu.local = data["local"]
        cpu.hops = list(data["hops"])
        return cpu


@dataclass
class MemoryProfile:
    """Everything a cold in-order replay measures except cycles."""

    num_nodes: int
    cpus: List[CpuProfile]
    misses: MissBreakdown
    l1: L1Stats
    protocol: ProtocolStats
    network: MessageCounters
    measured_txns: int
    l2_hits: int
    trace_refs: int

    def to_dict(self) -> dict:
        """JSON-safe form (the worker envelope); exact round trip."""
        return {
            "num_nodes": self.num_nodes,
            "cpus": [c.to_dict() for c in self.cpus],
            "misses": asdict(self.misses),
            "l1": asdict(self.l1),
            "protocol": asdict(self.protocol),
            "network": asdict(self.network),
            "measured_txns": self.measured_txns,
            "l2_hits": self.l2_hits,
            "trace_refs": self.trace_refs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryProfile":
        return cls(
            num_nodes=data["num_nodes"],
            cpus=[CpuProfile.from_dict(c) for c in data["cpus"]],
            misses=MissBreakdown(**data["misses"]),
            l1=L1Stats(**data["l1"]),
            protocol=ProtocolStats(**data["protocol"]),
            network=MessageCounters(**data["network"]),
            measured_txns=data["measured_txns"],
            l2_hits=data["l2_hits"],
            trace_refs=data["trace_refs"],
        )


def profile_key(spec, machine: MachineConfig,
                check: str = "off") -> Optional[tuple]:
    """The replay identity of a job, or ``None`` when it has none.

    Two jobs with equal keys replay the same trace through the same
    cache geometry, so one's profile retimes to the other's result.
    ``None`` marks a machine that does not produce a profile (OOO,
    RAC, CMP, victim buffer, TLB, per-quantum checking).
    """
    from repro.core.system import System

    if not profiled(machine, System.select_engine(machine, check=check)):
        return None
    return (spec, machine.ncpus, machine.l2_size, machine.l2_assoc,
            machine.replicate_code, machine.scale, check)


def retime(profile: MemoryProfile, machine: MachineConfig) -> RunResult:
    """Charge ``machine``'s latencies to ``profile``: the result a cold
    replay of ``machine`` would return, in exact integer arithmetic."""
    with current_tracer().span("retime", label=machine.label):
        lat = machine.latencies
        topo = machine.topology
        n = profile.num_nodes
        per_cpu = []
        for c, cpu in enumerate(profile.cpus):
            # One-way extras to and from this CPU's node; all zero
            # under a flat topology.
            out = [topo.hop_extra(c, h) for h in range(n)]
            back = [topo.hop_extra(h, c) for h in range(n)]
            hops = cpu.hops
            clean = dirty = 0
            for h in range(n):
                clean += ((hops[h] + hops[n + h])
                          * (lat.remote_clean + 2 * out[h])
                          + hops[2 * n + h]
                          * (lat.remote_upgrade + 2 * out[h]))
                data = 3 * n + h * n
                instr = data + n * n
                for o in range(n):
                    k = hops[data + o] + hops[instr + o]
                    if k:
                        dirty += k * (lat.remote_dirty + out[h]
                                      + topo.hop_extra(h, o) + back[o])
            per_cpu.append(ExecutionBreakdown(
                busy=cpu.busy,
                kernel_busy=cpu.kernel_busy,
                l2_hit=cpu.l2_hits * lat.l2_hit,
                local_stall=cpu.local * lat.local,
                remote_clean_stall=clean,
                remote_dirty_stall=dirty,
            ))
        total = ExecutionBreakdown()
        for b in per_cpu:
            total.add(b)
        return RunResult(
            machine=machine,
            breakdown=total,
            per_cpu=per_cpu,
            misses=MissBreakdown(**asdict(profile.misses)),
            l1=L1Stats(**asdict(profile.l1)),
            protocol=ProtocolStats(**asdict(profile.protocol)),
            rac=RacStats(),
            network=MessageCounters(**asdict(profile.network)),
            measured_txns=profile.measured_txns,
            l2_hits=profile.l2_hits,
            trace_refs=profile.trace_refs,
        )


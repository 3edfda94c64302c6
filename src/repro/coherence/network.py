"""Interconnect latency model.

The paper folds router, link, and controller-crossing delays into the
per-class latencies of Figure 3, and we do the same: this module maps
a protocol :class:`~repro.coherence.protocol.ServiceOutcome` to the
cycles the requesting processor stalls, given the active integration
level's latency table.  It also keeps message counters so experiments
can report traffic (e.g. the paper's invalidation-rate observation in
Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coherence.protocol import ServiceOutcome
from repro.cpu import STALL_LOCAL, STALL_REMOTE_CLEAN, STALL_REMOTE_DIRTY
from repro.params import (
    RAC_HIT_LATENCY,
    RAC_REMOTE_DIRTY_LATENCY,
    LatencyTable,
    MissKind,
)
from repro.scenario.topology import UNIFORM, TopologySpec

#: The stall class each kind of serviced miss charges, for the scalar
#: loops that pair ``service_latency`` with ``cpu.stall``.
KIND_TO_STALL = {
    MissKind.LOCAL: STALL_LOCAL,
    MissKind.REMOTE_CLEAN: STALL_REMOTE_CLEAN,
    MissKind.REMOTE_DIRTY: STALL_REMOTE_DIRTY,
}


@dataclass
class MessageCounters:
    """Coarse interconnect traffic counters (requests, not flits)."""

    requests_2hop: int = 0
    requests_3hop: int = 0
    invalidations: int = 0
    local_requests: int = 0

    def reset(self) -> None:
        """Zero all counters (warmup/measurement boundary)."""
        self.requests_2hop = 0
        self.requests_3hop = 0
        self.invalidations = 0
        self.local_requests = 0

    def as_dict(self) -> dict:
        return {
            "local": self.local_requests,
            "2hop": self.requests_2hop,
            "3hop": self.requests_3hop,
            "invalidations": self.invalidations,
        }


@dataclass
class InterconnectModel:
    """Latency assignment for serviced misses under one configuration.

    The Figure-3 ``table`` carries the uniform-machine class
    latencies; a non-flat :class:`TopologySpec` layers per-hop extras
    on top using the node identities the protocol records on each
    :class:`ServiceOutcome`.  Under the flat (uniform) topology the
    extra terms are structurally zero and the arithmetic below is
    exactly the pre-topology model, so uniform results stay
    bit-identical.
    """

    table: LatencyTable
    topology: TopologySpec = UNIFORM
    counters: MessageCounters = field(default_factory=MessageCounters)

    def __post_init__(self):
        self._flat = self.topology.is_flat

    def service_latency(self, outcome: ServiceOutcome) -> int:
        """Stall cycles the requester pays for this serviced miss."""
        self.counters.invalidations += outcome.invalidations
        kind = outcome.kind
        if kind is MissKind.LOCAL:
            self.counters.local_requests += 1
            if outcome.via_rac:
                # RAC hits respond at local-memory speed by construction
                # (the RAC data lives in local memory; Section 6).
                return RAC_HIT_LATENCY
            return self.table.local
        if kind is MissKind.REMOTE_CLEAN:
            self.counters.requests_2hop += 1
            base = (self.table.remote_upgrade if outcome.upgrade
                    else self.table.remote_clean)
            if self._flat:
                return base
            # Request out, data (or acknowledgement) back.
            return base + 2 * self.topology.hop_extra(
                outcome.requester, outcome.home)
        self.counters.requests_3hop += 1
        base = self.table.remote_dirty
        if outcome.from_remote_rac:
            # Dirty data served out of a remote node's RAC is slower
            # than out of its L2 (250 vs 200 ns; Section 6).
            base += RAC_REMOTE_DIRTY_LATENCY - 200
        if self._flat:
            return base
        # 3-hop triangle: requester→home (request), home→owner
        # (intervention forward), owner→requester (data reply).
        topo = self.topology
        req, home, owner = outcome.requester, outcome.home, outcome.dirty_owner
        return (base + topo.hop_extra(req, home)
                + topo.hop_extra(home, owner)
                + topo.hop_extra(owner, req))

"""Tests for the Figure-3 service latencies and the message counters.

Each serviced miss or upgrade is tallied into its event class
(:func:`~repro.core.profile.tally_service`) and priced by
:func:`~repro.core.profile.event_costs`, the one latency path.
"""

from repro.coherence.network import MessageCounters
from repro.coherence.protocol import ServiceOutcome
from repro.core.machine import MachineConfig
from repro.core.profile import CpuProfile, event_costs, tally_service
from repro.cpu.events import STALL_LOCAL, STALL_REMOTE_CLEAN, STALL_REMOTE_DIRTY
from repro.params import RAC_HIT_LATENCY, RAC_REMOTE_DIRTY_LATENCY, MissKind

BASE = MachineConfig.base(2)
L2MC = MachineConfig.integrated_l2_mc(2)
FULL = MachineConfig.fully_integrated(2)


def service(machine, outcome, counters=None):
    """Cycles and stall class node 0 of the two-node ``machine`` pays
    for ``outcome``."""
    ev = tally_service(CpuProfile(2), counters or MessageCounters(),
                       outcome, 2, False)
    cycles, klass = event_costs(machine, 0, 2)
    return cycles[ev], klass[ev]


def remote(kind, **fields):
    return ServiceOutcome(kind, requester=0, home=1, **fields)


def test_local_latency():
    counters = MessageCounters()
    assert service(BASE, ServiceOutcome(MissKind.LOCAL), counters) == (
        BASE.latencies.local, STALL_LOCAL)
    assert counters.local_requests == 1


def test_remote_clean_latency():
    counters = MessageCounters()
    assert service(BASE, remote(MissKind.REMOTE_CLEAN), counters) == (
        175, STALL_REMOTE_CLEAN)
    assert counters.requests_2hop == 1


def test_remote_dirty_latency():
    counters = MessageCounters()
    out = remote(MissKind.REMOTE_DIRTY, dirty_owner=1)
    assert service(BASE, out, counters) == (275, STALL_REMOTE_DIRTY)
    assert counters.requests_3hop == 1


def test_rac_hit_is_local_memory_speed():
    out = ServiceOutcome(MissKind.LOCAL, via_rac=True)
    assert service(FULL, out) == (RAC_HIT_LATENCY, STALL_LOCAL)


def test_dirty_from_remote_rac_pays_extra():
    out = remote(MissKind.REMOTE_DIRTY, from_remote_rac=True, dirty_owner=1)
    assert service(FULL, out)[0] == (
        FULL.latencies.remote_dirty + (RAC_REMOTE_DIRTY_LATENCY - 200))


def test_upgrade_uses_upgrade_latency_in_l2mc():
    data = remote(MissKind.REMOTE_CLEAN)
    upgrade = remote(MissKind.REMOTE_CLEAN, upgrade=True)
    rac_write = remote(MissKind.REMOTE_CLEAN, upgrade=True, via_rac=True)
    assert service(L2MC, data)[0] == 225      # memory fetch penalized
    assert service(L2MC, upgrade)[0] == 175   # data-less: Base path
    assert service(L2MC, rac_write)[0] == 175


def test_upgrade_matches_remote_clean_elsewhere():
    for machine in (BASE, FULL):
        upgrade = remote(MissKind.REMOTE_CLEAN, upgrade=True)
        assert service(machine, upgrade)[0] == machine.latencies.remote_clean


def test_invalidations_counted():
    counters = MessageCounters()
    service(BASE, ServiceOutcome(MissKind.LOCAL, invalidations=3), counters)
    assert counters.invalidations == 3


def test_counters_as_dict():
    counters = MessageCounters()
    service(BASE, remote(MissKind.REMOTE_CLEAN), counters)
    d = counters.as_dict()
    assert d["2hop"] == 1 and d["3hop"] == 0

"""White-box tests for the batched MP engine's flat state.

The differential and golden suites pin the engine end-to-end; these
tests pin the pieces that full replays cannot reach — in particular
the stale-ownership recovery branch of the inline coherence
transcription, which mirrors ``DirectoryProtocol.service_miss``'s
defensive path and is unreachable from well-formed traces (evictions
always notify the directory first).
"""

import pytest

from repro.coherence.directory import DirectoryState
from repro.core.machine import MachineConfig
from repro.core.profile import CpuProfile
from repro.core.system import System
from repro.memsys.vectorized_mp import (
    MODE_ASSOC,
    MODE_DM,
    _NodeState,
    _walk_assoc,
    _walk_dm,
)
from repro.params import KB
from repro.trace.census import sharing_census

from tests.core.test_differential import synthetic_mp_trace, synthetic_trace

L1_N = 4
L2_N = 8
ASSOC = 2

# A data read (flags 0) to line 9 by node 0; the census marked the
# line shared (no EFF_PRIVATE bit) with a remote home (no EFF_LOCAL).
LINE = 9
REMOTE_READ = 0


def _states(mode):
    return [_NodeState(mode, L1_N, L2_N, ASSOC) for _ in range(2)]


def _holds(st, line):
    """Whether ``st``'s L2 holds ``line``, in either mode."""
    if st.dmset is not None:
        return st.dmset[line % st.l2_n] == line
    return line in st.resident


def _walk(mode, states, dsh, down):
    """One walk; returns its counters and the CpuProfile hop tally."""
    L, E, S1, S2 = [LINE], [REMOTE_READ], [LINE % L1_N], [LINE % L2_N]
    n = len(states)
    cpu = CpuProfile(n)
    directory = DirectoryState()  # the walks work on its dicts
    directory._sharers, directory._owner = dsh, down
    walk = _walk_dm if mode == MODE_DM else _walk_assoc
    res = walk(L, E, S1, S2, 0, states, directory, cpu, n, None)
    return res, cpu.hops


@pytest.mark.parametrize("mode", [MODE_DM, MODE_ASSOC])
def test_stale_ownership_recovers_like_the_protocol(mode):
    """A stale self-owner entry (impossible via the walks themselves)
    must not be treated as a remote owner; the miss is serviced as
    ownerless — exactly ``service_miss``'s recovery semantics.  With
    no sharer set the owner entry survives, mirroring
    ``DirectoryState.remove_node``'s early return."""
    states = _states(mode)
    dsh = {}
    down = {LINE: 0}  # stale: node 0 "owns" a line it does not hold
    res, hops = _walk(mode, states, dsh, down)
    i_l1m, d_l1m, l2h = res[:3]
    intervs = res[7]
    assert d_l1m == 1 and i_l1m == 0 and l2h == 0
    assert intervs == 0, "stale entry must not look like a remote owner"
    # One 2-hop data miss at the flag word's home (0).
    assert hops[0] == 1 and sum(hops) == 1, \
        "recovered miss is serviced as ownerless"
    assert dsh == {LINE: {0}} and down == {LINE: 0}
    assert _holds(states[0], LINE) and not _holds(states[1], LINE)


@pytest.mark.parametrize("mode", [MODE_DM, MODE_ASSOC])
def test_stale_owner_with_sharers_drops_only_the_requester(mode):
    """When a sharer set survives alongside the stale owner entry, the
    recovery removes the requester (and the owner record) and keeps
    the other sharers."""
    states = _states(mode)
    dsh = {LINE: {0, 1}}
    down = {LINE: 0}
    _walk(mode, states, dsh, down)
    assert dsh == {LINE: {0, 1}}  # 1 kept; 0 re-added by the fill
    assert down == {}


def test_invalidate_uses_the_membership_set_in_assoc_mode():
    """ASSOC-mode invalidate must keep the flat membership set and the
    per-set LRU lists in lockstep, and report dirtiness once."""
    st = _NodeState(MODE_ASSOC, L1_N, L2_N, ASSOC)
    st.sets2[LINE % L2_N].insert(0, LINE)
    st.resident.add(LINE)
    st.dirty.add(LINE)
    assert _holds(st, LINE)
    assert st.invalidate(LINE) is True  # dirty data lost
    assert not _holds(st, LINE)
    assert LINE not in st.sets2[LINE % L2_N]
    assert st.invalidate(LINE) is False  # idempotent, nothing held


@pytest.mark.parametrize("ncpus,cpu_model,classified", [
    (1, "inorder", False), (1, "ooo", False), (8, "ooo", False),
    (8, "inorder", True)])
def test_only_private_bit_walks_classify_the_census(ncpus, cpu_model,
                                                    classified):
    # The private-line shortcut is the in-order RAC-free walks' alone;
    # the other replays skip the census' sort of the whole stream.  On
    # one node every line is private without a sort.
    trace = (synthetic_trace(3) if ncpus == 1
             else synthetic_mp_trace(3, ncpus))
    machine = MachineConfig.base(ncpus, l2_size=16 * KB, scale=1,
                                 cpu_model=cpu_model)
    System(machine).run(trace)
    assert ("_classes" in vars(sharing_census(trace))) == classified

"""Differential test: every replay engine vs a clean reference.

The System replay engines reach into cache internals for speed (the
vectorized one does not even keep per-reference cache state).  This
test re-implements the replay using only the public NodeCaches /
DirectoryProtocol APIs, with its own in-order cycle accumulator and
its own transcription of the Figure-3 service latencies (not
``repro.core.profile.event_costs``, the code under test), and checks
that each engine produces identical stall accounting and miss
classification.  Engine
parity with each *other* is covered exhaustively by
``tests/core/test_differential.py``; here every engine is anchored to
the reference semantics directly, so a bug shared by all of them
cannot hide.

The reference also models the extensions that only the scalar loop
replays: chip multiprocessors (``NodeCaches.access``'s ``core``
argument), L2 victim buffers (``NodeCaches``' own) and a per-CPU
software TLB of its own, an LRU list of pages.
"""

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.homemap import HomeMap
from repro.coherence.protocol import DirectoryProtocol
from repro.core.machine import MachineConfig
from repro.core.system import System
from repro.cpu.events import encode
from repro.memsys.hierarchy import HierarchyLevel, NodeCaches
from repro.params import (
    INSTRS_PER_ILINE,
    KB,
    L1_ASSOC,
    LINE_SIZE,
    TLB_WALK_CYCLES,
    VICTIM_HIT_EXTRA,
    MissKind,
)
from repro.stats.breakdown import MissBreakdown
from repro.trace.synthetic import make_trace

PAGE = 256


def service_cycles(table, outcome):
    """Figure 3's stall for a serviced miss or ownership upgrade on a
    flat-topology machine without RACs: local memory, a 2-hop fetch or
    data-less upgrade at the remote home, or a 3-hop dirty fetch."""
    if outcome.kind is MissKind.LOCAL:
        return table.local
    if outcome.kind is MissKind.REMOTE_CLEAN:
        return table.remote_upgrade if outcome.upgrade else table.remote_clean
    return table.remote_dirty


class Reference(NamedTuple):
    total: int
    misses: MissBreakdown
    tlb_walks: int
    victim_hits: int
    #: The protocol's upgrade, invalidation, writeback and intervention
    #: counts.
    protocol: tuple


def reference_run(machine: MachineConfig, trace) -> Reference:
    """Clean-room replay using only public component APIs."""
    cores = machine.cores_per_node
    nodes = [
        NodeCaches(
            machine.scaled_l2_size,
            machine.l2_assoc,
            l1_size=machine.scaled_l1_size,
            l1_assoc=L1_ASSOC,
            num_cores=cores,
            victim_entries=machine.victim_entries,
            node_id=i,
        )
        for i in range(machine.num_nodes)
    ]
    homemap = HomeMap(machine.num_nodes, trace.page_bytes)
    protocol = DirectoryProtocol(homemap, nodes)
    table = machine.latencies
    # An in-order core stalls for every service in full: its time is
    # busy cycles plus the sum of its stalls.
    cycles = [0] * machine.ncpus
    misses = MissBreakdown()
    mp = machine.num_nodes > 1
    # Each CPU's TLB: the pages it maps, least recently used first.
    tlbs = [[] for _ in range(machine.ncpus)]
    page_lines = trace.page_bytes // LINE_SIZE
    tlb_walks = victim_hits = 0

    for quantum in trace.quanta:
        c = quantum.cpu
        node_id = c // cores
        node = nodes[node_id]
        tlb = tlbs[c]
        for ref in quantum.refs:
            flags = ref & 15
            line = ref >> 4
            write = bool(flags & 1)
            instr = bool(flags & 2)
            if machine.tlb_entries:
                page = line // page_lines
                if page in tlb:
                    tlb.remove(page)
                else:
                    # A software fill: kernel instructions, all busy.
                    tlb_walks += 1
                    cycles[c] += TLB_WALK_CYCLES
                    if len(tlb) == machine.tlb_entries:
                        del tlb[0]
                tlb.append(page)
            if instr:
                cycles[c] += INSTRS_PER_ILINE
            result = node.access(line, write, instr, c % cores)
            if result.victim is not None:
                protocol.handle_eviction(
                    node_id, result.victim, result.victim_dirty
                )
            if result.level is HierarchyLevel.MISS:
                outcome = protocol.service_miss(node_id, line, write, instr)
                cycles[c] += service_cycles(table, outcome)
                misses.record(outcome.kind, instr)
            else:
                if result.level is HierarchyLevel.L2:
                    cycles[c] += table.l2_hit
                elif result.level is HierarchyLevel.VICTIM:
                    victim_hits += 1
                    cycles[c] += table.l2_hit + VICTIM_HIT_EXTRA
                if write and mp:
                    outcome = protocol.ensure_owner(node_id, line)
                    if outcome is not None:
                        cycles[c] += service_cycles(table, outcome)
    return Reference(sum(cycles), misses, tlb_walks, victim_hits, (
        protocol.upgrades, protocol.invalidations, protocol.writebacks,
        protocol.interventions))


def assert_matches_reference(got, ref: Reference) -> None:
    assert got.breakdown.total == ref.total
    assert got.misses.as_dict() == ref.misses.as_dict()
    assert got.tlb_misses == ref.tlb_walks
    assert got.victim_hits == ref.victim_hits
    assert (got.protocol.upgrades, got.protocol.invalidations,
            got.protocol.writebacks, got.protocol.interventions) \
        == ref.protocol


def random_trace(seed, ncpus, nquanta=40, nlines=48):
    rng = random.Random(seed)
    quanta = []
    for _ in range(nquanta):
        cpu = rng.randrange(ncpus)
        refs = []
        for _ in range(rng.randint(1, 30)):
            instr = rng.random() < 0.4
            refs.append(
                encode(
                    rng.randrange(nlines),
                    # Instruction fetches are never stores.
                    write=(not instr) and rng.random() < 0.4,
                    instr=instr,
                    kernel=rng.random() < 0.2,
                )
            )
        quanta.append((cpu, refs))
    return make_trace(ncpus, quanta, page_bytes=PAGE)


def machine_for(ncpus, l2_size, l2_assoc):
    return MachineConfig.base(ncpus, l2_size=l2_size, l2_assoc=l2_assoc, scale=1)


@pytest.mark.parametrize("engine", ["fast", "vectorized"])
@given(st.integers(0, 10_000),
       st.sampled_from([(2048, 1), (4096, 2), (8192, 4)]))
@settings(max_examples=15, deadline=None)
def test_uniprocessor_engines_match_reference(engine, seed, geometry):
    l2_size, l2_assoc = geometry
    trace = random_trace(seed, 1)
    machine = machine_for(1, l2_size, l2_assoc)
    got = System(machine, engine=engine).run(trace)
    assert_matches_reference(got, reference_run(machine, trace))


@pytest.mark.parametrize("engine", ["fast", "vectorized-mp"])
@given(st.integers(0, 10_000), st.sampled_from([2, 4]),
       st.sampled_from([(2048, 1), (4096, 2), (8192, 4)]))
@settings(max_examples=15, deadline=None)
def test_multiprocessor_engines_match_reference(engine, seed, ncpus, geometry):
    l2_size, l2_assoc = geometry
    trace = random_trace(seed, ncpus)
    machine = machine_for(ncpus, l2_size, l2_assoc)
    got = System(machine, engine=engine).run(trace)
    assert_matches_reference(got, reference_run(machine, trace))


@pytest.mark.parametrize("engine", ["fast", "vectorized"])
def test_engines_match_reference_small_caches(engine):
    """Heavy eviction pressure: tiny L2 forces constant replacement."""
    trace = random_trace(99, 1, nquanta=120, nlines=200)
    machine = machine_for(1, 1024, 1)
    got = System(machine, engine=engine).run(trace)
    assert_matches_reference(got, reference_run(machine, trace))


def test_multiprocessor_small_caches_matches_reference():
    trace = random_trace(99, 4, nquanta=120, nlines=200)
    machine = machine_for(4, 1024, 1)
    got = System(machine).run(trace)
    assert_matches_reference(got, reference_run(machine, trace))


#: The machines only the scalar loop replays, at scale 64 so that each
#: core's L1 (32 lines) is smaller than the traces' footprint: ``l2``
#: is the scaled L2 size in bytes.
EXTENDED = {
    "cmp": lambda l2, assoc: MachineConfig.chip_multiprocessor(
        2, cores_per_node=2, l2_size=64 * l2, l2_assoc=assoc, scale=64),
    "cmp-one-node": lambda l2, assoc: MachineConfig.chip_multiprocessor(
        1, cores_per_node=3, l2_size=64 * l2, l2_assoc=assoc, scale=64),
    "victim": lambda l2, assoc: MachineConfig.fully_integrated(
        3, l2_size=64 * l2, l2_assoc=assoc, scale=64, victim_entries=4),
    "victim-uni": lambda l2, assoc: MachineConfig.fully_integrated(
        1, l2_size=64 * l2, l2_assoc=assoc, scale=64, victim_entries=2),
    "tlb": lambda l2, assoc: MachineConfig.base(
        2, l2_size=64 * l2, l2_assoc=assoc, scale=64).with_(tlb_entries=4),
    "cmp-victim-tlb": lambda l2, assoc: MachineConfig.chip_multiprocessor(
        2, cores_per_node=2, l2_size=64 * l2, l2_assoc=assoc,
        scale=64).with_(victim_entries=3, tlb_entries=5),
}


@pytest.mark.parametrize("name", sorted(EXTENDED))
@given(st.integers(0, 10_000),
       st.sampled_from([(2 * KB, 1), (4 * KB, 2), (8 * KB, 4)]))
@settings(max_examples=15, deadline=None)
def test_extended_machines_match_reference(name, seed, geometry):
    machine = EXTENDED[name](*geometry)
    trace = random_trace(seed, machine.ncpus, nlines=96)
    system = System(machine)
    got = system.run(trace)
    assert system.engine == "fast"
    assert_matches_reference(got, reference_run(machine, trace))

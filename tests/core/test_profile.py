"""Memory profiles: one replay per cache geometry, retimed exactly.

The contract under test: for any two machines A and B with equal
:func:`profile_key` — same trace, same cache geometry, any latency
table, base-table override or topology —
``retime(profile(A), B).to_dict()`` equals a cold replay of B on a
scalar engine.  It is checked on every golden, on every job of
Figures 3-13 and the islands/chiplet ladders, on victim-buffer, CMP
and TLB machines, and by a Hypothesis suite over random latency
tables and topologies.  The cold replays retime their own profiles
too; the independent oracles are the goldens, the pinned outcomes of
``tests/core/test_differential.py`` and the reference model of
``tests/core/test_reference_model.py``.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.machine import MachineConfig
from repro.core.profile import (
    CpuProfile,
    MemoryProfile,
    profile_key,
    retime,
)
from repro.core.system import System, simulate
from repro.cpu.events import encode
from repro.experiments import cli
from repro.experiments.cli import FIGURES
from repro.experiments.common import Settings
from repro.integrity.errors import CampaignJobError, TraceMismatchError
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.params import KB, MB, IntegrationLevel, L2Technology, LatencyTable
from repro.runner import (
    CampaignRunner,
    ProfileMemo,
    SimJob,
    TraceSpec,
    default_trace_store,
    run_simulations,
)
from repro.scenario.topology import TopologySpec
from repro.trace.synthetic import make_trace

from tests.core.test_differential import (
    GEOMETRIES,
    grid_machine,
    mp_machine,
    synthetic_mp_trace,
    synthetic_trace,
    victim_machine,
)
from tests.golden import regen

TINY = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)

#: Valid (integration level, L2 technology) pairs.
LEVELS = [
    (IntegrationLevel.CONSERVATIVE_BASE, L2Technology.OFF_CHIP_SRAM),
    (IntegrationLevel.BASE, L2Technology.OFF_CHIP_SRAM),
    (IntegrationLevel.L2, L2Technology.ON_CHIP_SRAM),
    (IntegrationLevel.L2, L2Technology.ON_CHIP_DRAM),
    (IntegrationLevel.L2_MC, L2Technology.ON_CHIP_SRAM),
    (IntegrationLevel.FULL, L2Technology.ON_CHIP_SRAM),
    (IntegrationLevel.FULL, L2Technology.ON_CHIP_DRAM),
]


def profile_of(machine, trace, check="off"):
    system = System(machine, check=check)
    result = system.run(trace)
    assert system.profile is not None, machine.label
    return result, system.profile


def cold(machine, trace, check="off"):
    """A fresh replay of ``machine`` on the scalar loop."""
    return System(machine, engine="fast", check=check).run(trace).to_dict()


def relatives(machine):
    """Machines sharing ``machine``'s cache geometry: every latency
    table of Figure 3 (with an on-chip L2 for a CMP) plus
    islands/chiplet topologies when it has more than one node."""
    out = [machine.with_(label=f"{level.value} {tech.value}",
                         integration=level, l2_technology=tech)
           for level, tech in LEVELS
           if machine.cores_per_node == 1 or level.l2_on_chip]
    n = machine.num_nodes
    if n > 1:
        out.append(machine.with_(
            label="islands", topology=TopologySpec.islands(
                group_size=n // 2, island_extra=120)))
        out.append(machine.with_(
            label="chiplet",
            topology=TopologySpec.chiplet((0, 60, 140))))
    out.append(machine.with_(label="override", topology=TopologySpec.uniform(
        LatencyTable(7, 111, 222, 333, remote_upgrade=150))))
    return out


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(regen.CASES))
    def test_retime_equals_cold_replay(self, name):
        trace = regen.trace_from_dict(
            json.loads(regen.trace_path(name).read_text()))
        expected = json.loads(regen.expected_path(name).read_text())
        machine = MachineConfig.from_dict(expected["machine"])
        result, profile = profile_of(machine, trace)
        assert result.to_dict() == expected
        assert retime(profile, machine).to_dict() == expected
        for other in relatives(machine):
            assert retime(profile, other).to_dict() == cold(other, trace), \
                other.label


@pytest.fixture(scope="module")
def figure_jobs():
    return [job for name in FIGURES + ("islands-mp8", "chiplet-mp8")
            for job in cli.figure_jobs(name, TINY)]


class TestFigureJobs:
    def test_every_profiled_job_retimes_exactly(self, figure_jobs):
        store = default_trace_store()
        groups = {}
        for job in figure_jobs:
            key = profile_key(job.spec, job.machine, job.check)
            groups.setdefault(key, []).append(job)
        for jobs in groups.values():
            # The member whose profile serves the group: an OOO CPU
            # logs its events, and generated traces keep code apart
            # from data, so a non-replicated profile serves them all.
            rep = max(jobs, key=lambda j: (j.machine.cpu_model == "ooo",
                                           not j.machine.replicate_code))
            trace = store.get(rep.spec)
            _, profile = profile_of(rep.machine, trace, rep.check)
            for job in jobs:
                assert profile.serves(job.machine), job.label
                assert (retime(profile, job.machine).to_dict()
                        == cold(job.machine, trace, job.check)), job.label


# -- Hypothesis: random latency models on random traces ------------------------

latency_tables = st.builds(
    LatencyTable,
    l2_hit=st.integers(1, 60),
    local=st.integers(1, 400),
    remote_clean=st.integers(1, 600),
    remote_dirty=st.integers(1, 800),
    remote_upgrade=st.integers(1, 600),
)

topologies = st.one_of(
    st.builds(TopologySpec.uniform, st.none() | latency_tables),
    # Group sizes that tile every node count drawn below.
    st.builds(TopologySpec.islands, st.sampled_from([1, 2]),
              st.integers(0, 300)),
    st.builds(TopologySpec.chiplet,
              st.lists(st.integers(0, 300), min_size=1, max_size=7)
              .map(lambda xs: (0, *xs))),
    st.builds(
        lambda table, extra: TopologySpec(
            kind="islands", group_size=2, island_extra=extra,
            base_table=table),
        latency_tables, st.integers(0, 300)),
)

GEOMETRY = st.sampled_from([(2 * KB, 1), (4 * KB, 2), (8 * KB, 4),
                            (32 * KB, 8)])


def _machine(ncpus, geometry, level, topology=None, replicate=False):
    l2_size, l2_assoc = geometry
    integration, tech = level
    machine = MachineConfig(
        label="hyp", ncpus=ncpus, integration=integration,
        l2_size=l2_size, l2_assoc=l2_assoc, l2_technology=tech,
        replicate_code=replicate, scale=1,
    )
    return machine if topology is None else machine.with_(topology=topology)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50), ncpus=st.sampled_from([2, 4, 8]),
       geometry=GEOMETRY, replicate=st.booleans(),
       source=st.sampled_from(LEVELS), target=st.sampled_from(LEVELS),
       topology=topologies)
def test_retime_matches_cold_replay_mp(seed, ncpus, geometry, replicate,
                                       source, target, topology):
    trace = synthetic_mp_trace(seed, ncpus, nquanta=60,
                               replicate=replicate)
    a = _machine(ncpus, geometry, source, replicate=replicate)
    b = _machine(ncpus, geometry, target, topology, replicate=replicate)
    _, profile = profile_of(a, trace)
    assert retime(profile, b).to_dict() == cold(b, trace)
    assert simulate(b, trace).to_dict() == cold(b, trace)


def written_text_trace(seed, ncpus):
    """Data writes land on replicated text pages, so replicated (local)
    lines see 3-hop interventions: their home is the requester."""
    rng = random.Random(seed)
    text = frozenset(range(40, 44))
    quanta = []
    for _ in range(80):
        cpu = rng.randrange(ncpus)
        refs = []
        for _ in range(rng.randint(4, 40)):
            line = rng.choice((40 * 4, 500)) + rng.randrange(16)
            instr = rng.random() < 0.3
            refs.append(encode(line, instr=instr,
                               write=not instr and rng.random() < 0.5))
        quanta.append((cpu, refs))
    return make_trace(ncpus, quanta, page_bytes=256, text_pages=text,
                      warmup_quanta=5)


#: RAC and CPU-model cells: in-order with a RAC, OOO without, OOO
#: with; the RACs are small enough to evict.
RAC_CELLS = st.sampled_from([
    ("inorder", 1 * KB, 2), ("inorder", 8 * KB, 8), ("ooo", None, 8),
    ("ooo", 1 * KB, 2), ("ooo", 8 * KB, 8)])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50), ncpus=st.sampled_from([2, 4, 8]),
       geometry=GEOMETRY, replicate=st.booleans(), cell=RAC_CELLS,
       source=st.sampled_from(LEVELS), target=st.sampled_from(LEVELS),
       topology=topologies)
def test_rac_and_ooo_retimes_match_cold_replay(seed, ncpus, geometry,
                                               replicate, cell, source,
                                               target, topology):
    """A RAC profile's retime and an OOO profile's ordered retime
    equal a cold replay that charges every cycle as it goes."""
    cpu_model, rac_size, rac_assoc = cell
    trace = synthetic_mp_trace(seed, ncpus, nquanta=60,
                               replicate=replicate)
    a, b = (_machine(ncpus, geometry, level, topo, replicate=replicate)
            .with_(cpu_model=cpu_model, rac_size=rac_size,
                   rac_assoc=rac_assoc)
            for level, topo in ((source, None), (target, topology)))
    _, profile = profile_of(a, trace)
    assert (profile.ordered is not None) == (cpu_model == "ooo")
    assert retime(profile, b).to_dict() == cold(b, trace)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 50), geometry=GEOMETRY, topology=topologies)
def test_retime_matches_cold_replay_replicated_writes(seed, geometry,
                                                      topology):
    trace = written_text_trace(seed, 8)
    a = _machine(8, geometry, LEVELS[1], replicate=True)
    b = _machine(8, geometry, LEVELS[-1], topology, replicate=True)
    _, profile = profile_of(a, trace)
    assert retime(profile, b).to_dict() == cold(b, trace)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 50), geometry=GEOMETRY,
       source=st.sampled_from(LEVELS), table=st.none() | latency_tables)
def test_retime_matches_cold_replay_uni(seed, geometry, source, table):
    trace = synthetic_trace(seed, warmup=5)
    a = _machine(1, geometry, source)
    b = a.with_(topology=TopologySpec.uniform(table))
    _, profile = profile_of(a, trace)
    assert retime(profile, b).to_dict() == cold(b, trace)


# -- the profile itself --------------------------------------------------------

class TestProfile:
    @pytest.mark.parametrize("extra", [{}, {"cpu_model": "ooo"},
                                       {"cpu_model": "ooo",
                                        "rac_size": 4 * KB}],
                             ids=["inorder", "ooo", "ooo-rac"])
    def test_round_trip_is_exact(self, extra):
        machine = MachineConfig.fully_integrated(
            4, l2_size=8 * KB, scale=1, **extra)
        _, profile = profile_of(machine, synthetic_mp_trace(3, 4))
        again = MemoryProfile.from_dict(
            json.loads(json.dumps(profile.to_dict())))
        assert again.to_dict() == profile.to_dict()
        assert (retime(again, machine).to_dict()
                == retime(profile, machine).to_dict())

    def test_remote_events_name_their_hop_paths(self):
        n = 4
        machine = MachineConfig.fully_integrated(n, l2_size=8 * KB, scale=1)
        result, profile = profile_of(machine, synthetic_mp_trace(5, n))
        seen = {}
        for c, cpu in enumerate(profile.cpus):
            # CpuProfile.hops layout: 2-hop misses by row (home, then
            # instruction homes), 2-hop upgrades by home, 3-hop misses
            # by (row, owner).
            for i, count in enumerate(cpu.hops):
                if not count:
                    continue
                if i < 3 * n:
                    kind = ("2-hop data", "2-hop instr", "upgrade")[i // n]
                    assert i % n != c, "a 2-hop home is remote"
                else:
                    row, owner = divmod(i - 3 * n, n)
                    kind = "3-hop " + ("instr" if row >= n else "data")
                    assert owner != c, "the dirty owner is another node"
                seen[kind] = seen.get(kind, 0) + count
        misses = result.misses
        assert seen["2-hop data"] == misses.d_remote_clean
        assert seen["3-hop data"] == misses.d_remote_dirty
        assert (seen["2-hop instr"] + seen.get("3-hop instr", 0)
                == misses.i_remote)
        assert seen["upgrade"] > 0
        assert sum(seen.values()) == (result.network.requests_2hop
                                      + result.network.requests_3hop)

    def test_quantum_series_matches_the_scalar_engine(self):
        # Batch mode keeps remote misses in the hop tallies until the
        # run ends; the per-quantum series must still see them as they
        # happen.
        machine = MachineConfig.fully_integrated(4, l2_size=8 * KB, scale=1)
        series = {}
        for engine in ("fast", "vectorized-mp"):
            registry = MetricsRegistry()
            with use_metrics(registry):
                System(machine, engine=engine).run(synthetic_mp_trace(5, 4))
            (series[engine],) = registry.to_dict()["series"]
        for column in ("quantum", "miss_local", "miss_2hop", "miss_3hop",
                       "i_refs"):
            assert series["vectorized-mp"][column] == series["fast"][column]

    def test_keys_name_rac_geometry_and_replication_not_cpu_model(self):
        spec = TraceSpec(ncpus=8, scale=32, txns=10, seed=1)
        base = MachineConfig.fully_integrated(8)
        ooo = base.with_(cpu_model="ooo")
        repl = base.with_(replicate_code=True)
        rac = base.with_(rac_size=8 * 1024 * KB)
        # The CPU model and, without a RAC, code replication do not
        # change cache contents: one key.
        assert len({profile_key(spec, m) for m in (
            base, ooo, repl, repl.with_(cpu_model="ooo"),
            MachineConfig.integrated_l2(8, cpu_model="ooo"))}) == 1
        # A RAC holds remote-home lines only: replication and the RAC
        # geometry change what it holds.
        keys = {profile_key(spec, m) for m in (
            base, rac, rac.with_(rac_assoc=4), rac.with_(cpu_model="ooo"),
            rac.with_(replicate_code=True))}
        assert len(keys) == 4
        # Uniprocessors replay once per L2 geometry too, on any CPU.
        uni = TraceSpec(ncpus=1, scale=32, txns=10, seed=1)
        assert profile_key(uni, MachineConfig.base(1, cpu_model="ooo")) \
            == profile_key(uni, MachineConfig.base(1))
        assert (profile_key(uni, MachineConfig.integrated_l2(
            1, cpu_model="ooo")) == profile_key(
                uni, MachineConfig.integrated_l2_mc(1)))
        assert profile_key(spec, base, check="per-quantum") \
            != profile_key(spec, base)

    def test_key_ignores_latency_model_not_geometry(self):
        spec = TraceSpec(ncpus=8, scale=32, txns=10, seed=1)
        a = MachineConfig.integrated_l2(8)
        b = MachineConfig.fully_integrated(8).with_(
            topology=TopologySpec.islands(group_size=4, island_extra=90))
        assert profile_key(spec, a) == profile_key(spec, b)
        assert profile_key(spec, a) != profile_key(spec, a.with_(l2_assoc=4))
        assert profile_key(spec, a) != profile_key(spec, a, "end-of-run")

    @pytest.mark.parametrize("ncpus,engine", [
        (1, "auto"), (1, "fast"), (1, "vectorized"), (2, "auto"),
        (2, "fast"), (2, "vectorized-mp")])
    def test_every_engine_rejects_a_write_fetch(self, ncpus, engine):
        # No engine stores to an instruction line: a fetch carrying
        # the write flag is refused before it is replayed.
        trace = make_trace(ncpus, [(0, [encode(9)]),
                                   (ncpus - 1, [encode(5, write=True,
                                                       instr=True)])],
                           page_bytes=256)
        machine = MachineConfig.base(ncpus, scale=1, cpu_model="ooo")
        with pytest.raises(TraceMismatchError, match="write flag"):
            System(machine, engine=engine).run(trace)

    def test_cpu_profile_reset(self):
        cpu = CpuProfile(2)
        cpu.busy = cpu.local = 3
        cpu.hops[5] = 1
        cpu.reset()
        assert cpu.to_dict() == CpuProfile(2).to_dict()


# -- which machines a profile serves -------------------------------------------

# -- victim-buffer, CMP and TLB machines (the scalar loops' profiles) ---------

#: Machines only the ``general`` loop replays, and their traces.
SCALAR_CELLS = {
    "victim": (victim_machine, lambda: synthetic_mp_trace(9, 2)),
    "cmp": (lambda cpu: MachineConfig.chip_multiprocessor(
        4, cores_per_node=2, l2_size=16 * KB, l2_assoc=4, scale=1,
        cpu_model=cpu), lambda: synthetic_mp_trace(9, 8)),
    "tlb-uni": (lambda cpu: grid_machine(
        4 * KB, 2, L2Technology.OFF_CHIP_SRAM, cpu_model=cpu,
        tlb_entries=4), lambda: synthetic_trace(17, warmup=8)),
    "tlb-mp": (lambda cpu: mp_machine(4, cpu_model=cpu).with_(
        tlb_entries=8), lambda: synthetic_mp_trace(9, 4)),
}


class TestScalarProfiles:
    @pytest.mark.parametrize("cpu_model", ["inorder", "ooo"])
    @pytest.mark.parametrize("cell", sorted(SCALAR_CELLS))
    def test_retimes_to_every_table_and_topology(self, cell, cpu_model):
        make_machine, make_trace_ = SCALAR_CELLS[cell]
        machine = make_machine(cpu_model)
        trace = make_trace_()
        result, profile = profile_of(machine, trace)
        assert (profile.ordered is not None) == (cpu_model == "ooo")
        assert result.to_dict() == cold(machine, trace)
        for other in relatives(machine):
            assert retime(profile, other).to_dict() == cold(other, trace), \
                other.label
        if cell.startswith("tlb"):
            assert profile.tlb_misses == result.tlb_misses > 0
        if cell == "victim":
            assert profile.victim_hits == result.victim_hits > 0

    def test_key_names_victim_tlb_and_cores(self):
        spec = TraceSpec(ncpus=8, scale=1, txns=10, seed=1)
        base = MachineConfig.fully_integrated(8, l2_size=16 * KB, scale=1)
        cmp4 = MachineConfig.chip_multiprocessor(
            4, cores_per_node=2, l2_size=16 * KB, l2_assoc=8, scale=1)
        machines = [base, base.with_(victim_entries=4),
                    base.with_(victim_entries=8), base.with_(tlb_entries=64),
                    base.with_(tlb_entries=128),
                    base.with_(cores_per_node=2, label="cmp"), cmp4]
        keys = [profile_key(spec, m) for m in machines]
        assert len(set(keys)) == len(keys) - 1
        assert keys[-1] == keys[-2]  # the same CMP, built two ways

    @pytest.mark.parametrize("engine", ["fast", "vectorized",
                                        "vectorized-mp"])
    def test_every_engine_leaves_a_profile(self, engine):
        if engine == "vectorized-mp":
            machine, trace = mp_machine(2), synthetic_mp_trace(9, 2)
        else:
            machine = grid_machine(8 * KB, 4, L2Technology.ON_CHIP_SRAM)
            trace = synthetic_trace(17, warmup=8)
        system = System(machine, engine=engine)
        result = system.run(trace)
        assert system.profile is not None
        assert result.to_dict() == retime(system.profile, machine).to_dict()

    @pytest.mark.parametrize("cpu_model", ["inorder", "ooo"])
    def test_streamed_in_order_run_keeps_no_log(self, cpu_model):
        from repro.trace.stream import StreamedTrace

        machine = mp_machine(2, cpu_model=cpu_model)
        trace = synthetic_mp_trace(9, 2)
        system = System(machine, engine="fast")
        result = system.run(StreamedTrace.from_trace(trace, 7))
        ordered = system.profile.ordered
        if cpu_model == "inorder":
            assert ordered is None
        else:
            # One flag byte per reference, warmup included.
            assert len(ordered.flags) == trace.total_refs
        assert result.to_dict() == cold(machine, trace)


def _but_ordered(profile):
    data = profile.to_dict()
    del data["ordered"]
    return data


class TestServes:
    """The CPU model and, without a RAC, code replication are retime
    parameters: they do not change what a replay measures."""

    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    def test_cpu_models_differ_only_in_the_log_uni(self, geometry):
        machine = grid_machine(*geometry, L2Technology.ON_CHIP_SRAM)
        trace = synthetic_trace(17, warmup=8)
        _, inorder = profile_of(machine, trace)
        _, ooo = profile_of(machine.with_(cpu_model="ooo"), trace)
        assert inorder.ordered is None and ooo.ordered is not None
        assert _but_ordered(inorder) == _but_ordered(ooo)

    @pytest.mark.parametrize("l2_assoc", [1, 4], ids=["dm", "4w"])
    @pytest.mark.parametrize("replicate", [False, True],
                             ids=["plain", "repl"])
    @pytest.mark.parametrize("rac", [None, 256 * KB, 8 * KB],
                             ids=["norac", "rac", "smallrac"])
    @pytest.mark.parametrize("ncpus", [2, 8])
    def test_cpu_models_differ_only_in_the_log_mp(self, ncpus, rac,
                                                  replicate, l2_assoc):
        machine = mp_machine(ncpus, rac_size=rac, replicate=replicate,
                             l2_assoc=l2_assoc)
        trace = synthetic_mp_trace(9, ncpus, replicate=replicate)
        _, inorder = profile_of(machine, trace)
        _, ooo = profile_of(machine.with_(cpu_model="ooo"), trace)
        assert inorder.ordered is None and ooo.ordered is not None
        assert _but_ordered(inorder) == _but_ordered(ooo)
        assert ooo.serves(machine) and not inorder.serves(
            machine.with_(cpu_model="ooo"))

    @pytest.mark.parametrize("cpu_model", ["inorder", "ooo"])
    @pytest.mark.parametrize("topology", [
        None, TopologySpec.islands(group_size=4, island_extra=120)],
        ids=["flat", "islands"])
    def test_plain_profile_retimes_the_replicated_machine(self, cpu_model,
                                                          topology):
        spec = TraceSpec(ncpus=8, scale=TINY.scale, txns=TINY.mp_txns,
                         seed=TINY.seed)
        trace = default_trace_store().get(spec)
        plain = MachineConfig.fully_integrated(
            8, l2_size=1 * MB, l2_assoc=4, scale=TINY.scale,
            cpu_model=cpu_model)
        _, profile = profile_of(plain, trace)
        assert profile.code_separable and not profile.replicated
        before = profile.to_dict()
        repl = plain.with_(replicate_code=True)
        if topology is not None:
            repl = repl.with_(topology=topology)
        assert profile.serves(repl)
        want = cold(repl, trace)
        assert retime(profile, repl).to_dict() == want
        assert profile.to_dict() == before  # the memo's copy is untouched
        assert want["misses"]["i_local"] > profile.misses.i_local

    def test_code_outside_the_text_pages_is_not_served(self):
        # Half the instruction fetches leave the text pages, and data
        # writes land on lines that are also fetched.
        trace = synthetic_mp_trace(9, 8, replicate=True)
        plain = mp_machine(8)
        repl = mp_machine(8, replicate=True)
        _, profile = profile_of(plain, trace)
        assert not profile.code_separable
        assert not profile.serves(repl)
        with pytest.raises(ValueError):
            retime(profile, repl)
        spec = TraceSpec(ncpus=8, scale=1, txns=1, seed=1)
        jobs = [SimJob(spec=spec, machine=m) for m in (plain, repl)]
        memo = ProfileMemo()
        memo.put(profile_key(spec, plain), profile)
        assert memo.lookup(jobs[0]) is profile
        assert memo.lookup(jobs[1]) is None
        plan = memo.plan(jobs)
        assert [i for i, _ in plan.retimed] == [0] and plan.replays == [1]


# -- runner integration --------------------------------------------------------

def _ladder(ncpus):
    from repro.experiments.integration import ladder_configs

    spec = TraceSpec(ncpus=ncpus, scale=TINY.scale, txns=TINY.mp_txns,
                     seed=TINY.seed)
    return [SimJob(spec=spec, machine=m)
            for _, m in ladder_configs(ncpus, TINY.scale)]


class TestRunner:
    def test_fig10_replays_two_mp_profiles_then_nothing(self, tmp_path):
        from repro.experiments.campaign import run_campaign

        def mp_ladder_sources(report):
            return [r.source for r in report.telemetry.records
                    if r.engine == "vectorized-mp"
                    and not r.label.startswith("Cons")]

        cold_run = run_campaign(("fig10",), TINY, jobs=2,
                                cache_dir=str(tmp_path), progress=False)
        assert sorted(mp_ladder_sources(cold_run)) == [
            "retimed", "retimed", "simulated", "simulated"]
        assert "retimed=" in cold_run.telemetry.summary_line()
        warm = run_campaign(("fig10",), TINY, jobs=2,
                            cache_dir=str(tmp_path), progress=False)
        assert warm.telemetry.simulated == 0
        assert warm.telemetry.retimed == 0
        assert warm.figures == cold_run.figures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memo_spans_batches(self, workers):
        jobs = _ladder(8)
        store = default_trace_store()
        want = [simulate(j.machine, store.get(j.spec)).to_dict()
                for j in jobs]
        registry = MetricsRegistry()
        with use_metrics(registry), CampaignRunner(jobs=workers) as runner:
            first = runner.run_jobs(jobs[:2])  # Base 8M1w, L2 2M8w
            second = runner.run_jobs(jobs[2:])  # L2+MC, All: both 2M8w
        assert [r.to_dict() for r in first + second] == want
        sources = [r.source for r in runner.telemetry.records]
        assert sources == ["simulated", "simulated", "retimed", "retimed"]
        assert registry.counters["campaign.retimed"] == 2

    def test_a_write_fetch_fails_the_job_and_its_siblings(self):
        trace = make_trace(1, [(0, [encode(5, write=True, instr=True),
                                    encode(9), encode(77, write=True)])],
                           page_bytes=256)

        class OneTrace:
            spill_dir = None
            capacity = 1

            def get(self, spec):
                return trace

        spec = TraceSpec(ncpus=1, scale=1, txns=1, seed=1)
        jobs = [SimJob(spec=spec, machine=MachineConfig.base(1, scale=1)),
                SimJob(spec=spec, machine=MachineConfig.integrated_l2(
                    1, l2_size=8 * 1024 * KB, l2_assoc=1, scale=1))]
        with CampaignRunner(jobs=1, trace_store=OneTrace()) as runner:
            with pytest.raises(CampaignJobError) as info:
                runner.run_jobs(jobs)
        assert [f.label for f in info.value.failures] == [
            j.label for j in jobs]
        assert "TraceMismatchError" in str(info.value)
        assert runner.telemetry.retimed == 0

    def test_inline_batch_retimes_and_traces_it(self):
        tracer = Tracer()
        jobs = _ladder(8)
        store = default_trace_store()
        with use_tracer(tracer):
            results = run_simulations(jobs)
        assert [r.to_dict() for r in results] == [
            cold(j.machine, store.get(j.spec)) for j in jobs]
        runs = [s for s in tracer.spans if s.name == "system.run"]
        retimes = [s for s in tracer.spans if s.name == "retime"]
        assert len(runs) == 2  # one replay per geometry
        assert len(retimes) == len(jobs)


def test_all_verb_replays_once_per_profile_key(tmp_path, monkeypatch,
                                              capsys):
    from repro.experiments.cli import main

    class Recorder:
        """Records every job the verb runs, on the inline path."""

        def __init__(self):
            self.jobs = []

        def __call__(self, jobs):
            self.jobs.extend(jobs)
            return run_simulations(jobs)

    monkeypatch.chdir(tmp_path)
    recorder = Recorder()
    monkeypatch.setattr(cli, "run_simulations", recorder)
    assert main(["all", "--scale", "256", "--uni-txns", "15",
                 "--mp-txns", "30", "--trace-out", "all.json"]) == 0
    capsys.readouterr()
    events = json.loads((tmp_path / "all.json").read_text())["traceEvents"]
    replays = [e["args"]["label"] for e in events
               if e["name"] == "system.run"]
    keys = [profile_key(j.spec, j.machine, j.check) for j in recorder.jobs]
    assert len(keys) > len(set(keys))
    assert len(replays) == len(set(keys))
    # fig10's Conservative Base shares fig6's 8M4w geometry.
    assert not [label for label in replays if label.startswith("Cons")]


def test_profile_verb_lists_the_retime_span(tmp_path, monkeypatch, capsys):
    from repro.experiments.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["profile", "fig10", "--scale", "256", "--uni-txns", "15",
                 "--mp-txns", "30"]) == 0
    table = capsys.readouterr().out.split("span self-time profile")[1]
    assert "  retime " in table

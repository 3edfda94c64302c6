"""Multi-engine differential harness.

Parametrized sweeps asserting that the replay engines — the scalar
loop ``_run_fast`` and the staged numpy pipeline under its two names,
``vectorized`` (one node) and ``vectorized-mp`` — produce **equal**
``RunResult.to_dict()`` payloads wherever their domains overlap.

The uniprocessor grid covers L2 sizes × associativities × SRAM/DRAM
technology × TLB on/off, in-order and out-of-order CPUs, with and
without a warmup window.  The multiprocessor grid covers 2/8 nodes ×
no/large/small RAC × instruction replication on/off × in-order/OOO ×
direct-mapped/set-associative L2, which exercises every walk of the
staged pipeline and its RAC miss path.

Equality of the full serialized result is the contract that lets
cached campaign results stay valid across engines without a
``CODE_VERSION`` bump: any field drifting — breakdowns, miss
taxonomies, L1 stats, directory counters — fails here first.

TLB-on cells are the negative half of the grid: the vectorized
engine must *refuse* them (ConfigError) and auto-selection must fall
back to the scalar loop, rather than silently mis-replaying.

Per-quantum checking, fault plans and the victim-buffer, CMP and TLB
machines run only on the scalar loop, so their cells are pinned to
fixed outcomes instead of compared across engines; the reference
model of ``tests/core/test_reference_model.py`` checks those machines
independently.
"""

import hashlib
import json
import random

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import ENGINES, System
from repro.cpu.events import encode
from repro.integrity.errors import ConfigError, InvariantViolation
from repro.integrity.faults import FaultPlan
from repro.params import KB, IntegrationLevel, L2Technology
from repro.scenario.topology import TopologySpec
from repro.trace.synthetic import make_trace

PAGE = 256


def synthetic_trace(seed, *, nquanta=60, nlines=300, warmup=0):
    """Seeded uniprocessor trace with enough distinct lines to force
    eviction pressure on the small grid geometries."""
    rng = random.Random(seed)
    quanta = []
    for _ in range(nquanta):
        refs = []
        for _ in range(rng.randint(4, 40)):
            instr = rng.random() < 0.4
            refs.append(
                encode(
                    rng.randrange(nlines),
                    write=(not instr) and rng.random() < 0.4,
                    instr=instr,
                    kernel=rng.random() < 0.2,
                )
            )
        quanta.append((0, refs))
    return make_trace(1, quanta, page_bytes=PAGE, warmup_quanta=warmup)


def synthetic_mp_trace(seed, ncpus, *, nquanta=120, warmup=10,
                       replicate=False):
    """Seeded multiprocessor trace mixing per-CPU private working sets,
    a contended shared pool and (optionally replicated) kernel text, so
    every sharing class and miss kind shows up in the sweep."""
    rng = random.Random(seed)
    page_lines = PAGE // 64
    text_pages = frozenset(range(1000, 1004)) if replicate else frozenset()
    quanta = []
    for _ in range(nquanta):
        cpu = rng.randrange(ncpus)
        refs = []
        for _ in range(rng.randint(4, 60)):
            instr = rng.random() < 0.3
            if instr and text_pages and rng.random() < 0.5:
                line = 1000 * page_lines + rng.randrange(4 * page_lines)
            elif rng.random() < 0.5:
                line = 10000 * (cpu + 1) + rng.randrange(250)  # private
            else:
                line = 500 + rng.randrange(300)  # shared, contended
            refs.append(
                encode(
                    line,
                    write=(not instr) and rng.random() < 0.4,
                    instr=instr,
                    kernel=rng.random() < 0.2,
                    dependent=rng.random() < 0.3,
                )
            )
        quanta.append((cpu, refs))
    return make_trace(ncpus, quanta, page_bytes=PAGE,
                      warmup_quanta=warmup, text_pages=text_pages)


def grid_machine(l2_size, l2_assoc, technology, cpu_model="inorder",
                 tlb_entries=0):
    """One grid cell; scale=1 so the geometry is exactly as stated."""
    if technology is L2Technology.OFF_CHIP_SRAM:
        integration = IntegrationLevel.BASE
    else:
        integration = IntegrationLevel.L2
    return MachineConfig(
        label=f"diff {l2_size // KB}K{l2_assoc}w {technology.value}",
        ncpus=1,
        integration=integration,
        l2_size=l2_size,
        l2_assoc=l2_assoc,
        l2_technology=technology,
        cpu_model=cpu_model,
        tlb_entries=tlb_entries,
        scale=1,
    )


GEOMETRIES = [
    (2 * KB, 1),    # direct-mapped, heavy eviction: _walk_dm
    (4 * KB, 2),    # 2-way, some sets overflow: _walk_assoc
    (8 * KB, 4),    # 4-way, overflow-dominated: _walk_assoc
    (16 * KB, 4),   # 4-way, some sets never overflow: _walk_assoc
    (32 * KB, 8),   # no-evict, every set holds its footprint: _walk_assoc
]
TECHNOLOGIES = [
    L2Technology.OFF_CHIP_SRAM,
    L2Technology.ON_CHIP_SRAM,
    L2Technology.ON_CHIP_DRAM,
]


def run_all_engines(machine, trace):
    """Replay ``trace`` once per engine; Systems are single-use."""
    return {
        engine: System(machine, engine=engine).run(trace).to_dict()
        for engine in ("fast", "vectorized")
    }


class TestUniprocessorEquivalence:
    @pytest.mark.parametrize("technology", TECHNOLOGIES,
                             ids=lambda t: t.value)
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    @pytest.mark.parametrize("seed,warmup", [(3, 0), (11, 12)])
    def test_runresults_identical(self, seed, warmup, geometry, technology):
        l2_size, l2_assoc = geometry
        machine = grid_machine(l2_size, l2_assoc, technology)
        trace = synthetic_trace(seed, warmup=warmup)
        results = run_all_engines(machine, trace)
        assert results["vectorized"] == results["fast"]

    @pytest.mark.parametrize("geometry", [(2 * KB, 1), (2 * KB, 4),
                                          (4 * KB, 2), (16 * KB, 4),
                                          (32 * KB, 8)],
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    def test_runresults_identical_ooo(self, geometry):
        l2_size, l2_assoc = geometry
        machine = grid_machine(l2_size, l2_assoc,
                               L2Technology.ON_CHIP_SRAM, cpu_model="ooo")
        trace = synthetic_trace(17, warmup=8)
        results = run_all_engines(machine, trace)
        assert results["vectorized"] == results["fast"]

    @pytest.mark.parametrize("cpu_model", ["inorder", "ooo"])
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    def test_one_node_takes_no_ownership_upgrades(self, geometry,
                                                  cpu_model):
        """One node has no other copy to invalidate, so a write hit
        never upgrades: the scalar loop skips ``ensure_owner``, and the
        staged walks, which see every line as private, must too."""
        l2_size, l2_assoc = geometry
        machine = grid_machine(l2_size, l2_assoc, L2Technology.ON_CHIP_SRAM,
                               cpu_model=cpu_model)
        results = run_all_engines(machine, synthetic_trace(17, warmup=8))
        for engine, result in results.items():
            assert result["protocol"]["upgrades"] == 0, engine
        assert results["vectorized"] == results["fast"]

    @pytest.mark.parametrize("cpu_model", ["inorder", "ooo"])
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    def test_end_of_run_checker_accepts_final_state(self, geometry,
                                                    cpu_model):
        """The kernel rebuilds the final L2 and directory state from
        its flat walk state; the integrity checker must see a state
        indistinguishable from the scalar loop's."""
        l2_size, l2_assoc = geometry
        machine = grid_machine(l2_size, l2_assoc, L2Technology.ON_CHIP_SRAM,
                               cpu_model=cpu_model)
        trace = synthetic_trace(17, warmup=8)
        vec = System(machine, engine="vectorized", check="end-of-run")
        a = vec.run(trace).to_dict()
        assert vec.engine == "vectorized"
        b = System(machine, engine="fast",
                   check="end-of-run").run(trace).to_dict()
        assert a == b

    def test_auto_selection_matches_forced_engines(self):
        machine = grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM)
        trace = synthetic_trace(5)
        auto_sys = System(machine)
        assert auto_sys.engine == "vectorized"
        auto = auto_sys.run(trace).to_dict()
        assert auto == System(machine, engine="fast").run(trace).to_dict()


class TestTlbCells:
    """TLB-on half of the grid: only the scalar loop may replay."""

    def tlb_machine(self):
        return grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM,
                            tlb_entries=4)

    def test_vectorized_refuses_tlb(self):
        with pytest.raises(ConfigError):
            System(self.tlb_machine(), engine="vectorized")

    def test_auto_falls_back_to_fast(self):
        machine = self.tlb_machine()
        assert System.select_engine(machine) == "fast"
        system = System(machine)
        assert system.engine == "fast"
        assert system.run(synthetic_trace(5)).tlb_misses > 0

    def test_machine_reports_not_vectorizable(self):
        assert not self.tlb_machine().vectorizable
        assert grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM).vectorizable


def mp_machine(ncpus, *, rac_size=None, replicate=False,
               cpu_model="inorder", l2_assoc=4):
    """One multiprocessor grid cell; scale=1 geometry."""
    return MachineConfig(
        label=f"mp-diff n{ncpus} {l2_assoc}w"
              f"{' rac' if rac_size else ''}{' repl' if replicate else ''}",
        ncpus=ncpus,
        integration=IntegrationLevel.L2,
        l2_size=16 * KB,
        l2_assoc=l2_assoc,
        l2_technology=L2Technology.ON_CHIP_SRAM,
        cpu_model=cpu_model,
        rac_size=rac_size,
        replicate_code=replicate,
        scale=1,
    )


def run_mp_engines(machine, trace):
    """Replay ``trace`` once per MP-capable engine."""
    return {
        engine: System(machine, engine=engine).run(trace).to_dict()
        for engine in ("fast", "vectorized-mp")
    }


class TestMultiprocessorEquivalence:
    """The staged pipeline's differential cells: 2/8 nodes × RAC ×
    instruction replication × in-order/OOO."""

    @pytest.mark.parametrize("l2_assoc", [1, 4], ids=["dm", "4w"])
    @pytest.mark.parametrize("cpu_model", ["inorder", "ooo"])
    @pytest.mark.parametrize("replicate", [False, True],
                             ids=["plain", "repl"])
    @pytest.mark.parametrize("rac", [None, 256 * KB, 8 * KB],
                             ids=["norac", "rac", "smallrac"])
    @pytest.mark.parametrize("ncpus", [2, 8])
    def test_runresults_identical(self, ncpus, rac, replicate, cpu_model,
                                  l2_assoc):
        machine = mp_machine(ncpus, rac_size=rac, replicate=replicate,
                             cpu_model=cpu_model, l2_assoc=l2_assoc)
        trace = synthetic_mp_trace(9, ncpus, replicate=replicate)
        results = run_mp_engines(machine, trace)
        assert results["vectorized-mp"] == results["fast"]

    @pytest.mark.parametrize("l2_assoc", [1, 2, 8],
                             ids=lambda a: f"{a}w")
    def test_runresults_identical_across_l2_modes(self, l2_assoc):
        """Direct-mapped, overflowing and no-evict L2 footprints must
        all stay exact."""
        machine = mp_machine(4, l2_assoc=l2_assoc)
        trace = synthetic_mp_trace(21, 4)
        results = run_mp_engines(machine, trace)
        assert results["vectorized-mp"] == results["fast"]

    def test_no_warmup_boundary(self):
        machine = mp_machine(2)
        trace = synthetic_mp_trace(13, 2, warmup=0)
        results = run_mp_engines(machine, trace)
        assert results["vectorized-mp"] == results["fast"]

    @pytest.mark.parametrize("rac,cpu_model", [
        (None, "inorder"), (8 * KB, "inorder"), (None, "ooo"),
        (8 * KB, "ooo")])
    def test_end_of_run_checker_accepts_reconstructed_state(self, rac,
                                                            cpu_model):
        """The engine rebuilds directory entries for private lines at
        the end of the run (and RAC machines keep RAC-held lines in the
        directory); the integrity checker must see a state
        indistinguishable from the scalar loop's."""
        machine = mp_machine(8, rac_size=rac, cpu_model=cpu_model)
        trace = synthetic_mp_trace(9, 8)
        a = System(machine, engine="vectorized-mp",
                   check="end-of-run").run(trace).to_dict()
        b = System(machine, engine="fast",
                   check="end-of-run").run(trace).to_dict()
        assert a == b

    def test_auto_selection_matches_forced(self):
        machine = mp_machine(8)
        trace = synthetic_mp_trace(9, 8)
        auto_sys = System(machine)
        assert auto_sys.engine == "vectorized-mp"
        auto = auto_sys.run(trace).to_dict()
        assert auto == System(machine, engine="fast").run(trace).to_dict()


class TestEngineSelection:
    def test_engines_tuple_is_the_contract(self):
        assert ENGINES == ("auto", "fast", "vectorized", "vectorized-mp")
        for name in ("turbo", "general"):
            with pytest.raises(ConfigError):
                System.select_engine(MachineConfig.base(1), engine=name)

    @pytest.mark.parametrize("machine", [
        MachineConfig.chip_multiprocessor(4, cores_per_node=2),
        MachineConfig.fully_integrated(8, victim_entries=16),
        MachineConfig.fully_integrated(1).with_(tlb_entries=64),
    ], ids=["cmp", "victim", "tlb"])
    def test_extended_machines_select_the_scalar_loop(self, machine):
        assert System.select_engine(machine) == "fast"

    def test_out_of_order_machines_stop_at_127_nodes(self):
        """An ordered-log record keeps its event class in REC_SHIFT
        bits: 127 nodes fit, 128 are refused before anything runs."""
        def ooo(n):
            return MachineConfig.fully_integrated(
                n, l2_size=1 * KB, l2_assoc=1, scale=1, cpu_model="ooo")

        assert System(ooo(127)).engine == "vectorized-mp"
        with pytest.raises(ConfigError, match="at most 127 nodes"):
            System(ooo(128))
        for engine in ENGINES:
            with pytest.raises(ConfigError):
                System(ooo(128), engine=engine)
        System(ooo(128).with_(cpu_model="inorder"))

    def test_uniprocessor_auto_selects_vectorized(self):
        assert System.select_engine(MachineConfig.base(1)) == "vectorized"

    def test_multiprocessor_auto_selects_vectorized_mp(self):
        assert System.select_engine(MachineConfig.base(8)) == "vectorized-mp"

    def test_vectorized_mp_refuses_uniprocessor(self):
        with pytest.raises(ConfigError):
            System.select_engine(MachineConfig.base(1),
                                 engine="vectorized-mp")

    def test_per_quantum_checking_vetoes_vectorized(self):
        machine = MachineConfig.base(1)
        assert System.select_engine(machine, check="per-quantum") == "fast"
        with pytest.raises(ConfigError):
            System.select_engine(machine, check="per-quantum",
                                 engine="vectorized")

    def test_per_quantum_checking_vetoes_vectorized_mp(self):
        machine = MachineConfig.base(8)
        assert System.select_engine(machine, check="per-quantum") == "fast"
        with pytest.raises(ConfigError):
            System.select_engine(machine, check="per-quantum",
                                 engine="vectorized-mp")

    def test_fault_plan_vetoes_vectorized(self):
        machine = MachineConfig.base(1)
        assert System.select_engine(machine, fault_plan=object()) == "fast"

    def test_fault_plan_vetoes_vectorized_mp(self):
        machine = MachineConfig.base(8)
        assert System.select_engine(machine, fault_plan=object()) == "fast"

    def test_engine_is_not_part_of_job_identity(self):
        """Cached results must stay valid whatever engine produced
        them: the SimJob content hash may not include the engine."""
        from repro.runner.jobs import SimJob
        from repro.runner.tracestore import TraceSpec

        spec = TraceSpec(ncpus=1, scale=64, txns=20, seed=1)
        job = SimJob(spec=spec, machine=MachineConfig.base(1))
        assert "engine" not in repr(job.payload()).lower()


# Chunk sizes for the streaming cells: single-quantum (maximum chunk
# count, boundary inside some chunk), a prime (misaligned with every
# geometry), and whole-trace (one chunk, the degenerate case).
STREAM_CHUNKS = [1, 7, None]
STREAM_CHUNK_IDS = ["q1", "q7", "whole"]


class TestStreamingEquivalence:
    """Chunked replay differential: every engine cell re-run through
    the streaming path must be value-identical to its materialized
    replay at every chunk size.

    ``StreamedTrace.from_trace`` re-presents the same trace as a
    single-use chunk iterator, so any divergence here isolates a bug
    in the streaming seam itself (chunk iteration, warmup-boundary
    normalization, ``collect()`` for the vectorized engines) rather
    than in an engine.
    """

    @pytest.mark.parametrize("technology", TECHNOLOGIES,
                             ids=lambda t: t.value)
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    def test_uniprocessor_cells(self, geometry, technology):
        from repro.trace.stream import StreamedTrace

        l2_size, l2_assoc = geometry
        machine = grid_machine(l2_size, l2_assoc, technology)
        trace = synthetic_trace(11, warmup=12)
        for engine in ("fast", "vectorized"):
            base = System(machine, engine=engine).run(trace).to_dict()
            for chunk in STREAM_CHUNKS:
                streamed = System(machine, engine=engine).run(
                    StreamedTrace.from_trace(trace, chunk)
                ).to_dict()
                assert streamed == base, (engine, chunk)

    @pytest.mark.parametrize("chunk", STREAM_CHUNKS, ids=STREAM_CHUNK_IDS)
    def test_uniprocessor_no_warmup(self, chunk):
        from repro.trace.stream import StreamedTrace

        machine = grid_machine(4 * KB, 2, L2Technology.ON_CHIP_SRAM)
        trace = synthetic_trace(3, warmup=0)
        for engine in ("fast", "vectorized"):
            base = System(machine, engine=engine).run(trace).to_dict()
            streamed = System(machine, engine=engine).run(
                StreamedTrace.from_trace(trace, chunk)
            ).to_dict()
            assert streamed == base, engine

    @pytest.mark.parametrize("ncpus", [2, 8])
    def test_multiprocessor_cells(self, ncpus):
        from repro.trace.stream import StreamedTrace

        machine = mp_machine(ncpus, rac_size=256 * KB, replicate=True)
        trace = synthetic_mp_trace(9, ncpus, replicate=True)
        for engine in ("fast", "vectorized-mp"):
            base = System(machine, engine=engine).run(trace).to_dict()
            for chunk in STREAM_CHUNKS:
                streamed = System(machine, engine=engine).run(
                    StreamedTrace.from_trace(trace, chunk)
                ).to_dict()
                assert streamed == base, (engine, chunk)

    @pytest.mark.parametrize("engine", ["fast", "vectorized"])
    def test_ooo_streamed_cell(self, engine):
        from repro.trace.stream import StreamedTrace

        machine = grid_machine(8 * KB, 4, L2Technology.ON_CHIP_SRAM,
                               cpu_model="ooo")
        trace = synthetic_trace(17, warmup=8)
        base = System(machine, engine="fast").run(trace).to_dict()
        streamed = System(machine, engine=engine).run(
            StreamedTrace.from_trace(trace, 7)).to_dict()
        assert streamed == base

    def test_ooo_uniprocessor_leaves_an_ordered_profile(self):
        """Uniprocessor OOO replays on the staged walk, so the run
        is timed from its ordered profile."""
        from repro.trace.stream import StreamedTrace

        machine = grid_machine(8 * KB, 4, L2Technology.ON_CHIP_SRAM,
                               cpu_model="ooo")
        system = System(machine, engine="vectorized")
        system.run(StreamedTrace.from_trace(synthetic_trace(17, warmup=8), 7))
        assert system.engine == "vectorized"
        assert system.ordered is not None
        assert system.profile is not None
        assert system.profile.ordered is system.ordered

    def test_stream_is_single_use(self):
        from repro.integrity.errors import StateError
        from repro.trace.stream import StreamedTrace

        machine = grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM)
        trace = synthetic_trace(5)
        stream = StreamedTrace.from_trace(trace, 7)
        System(machine, engine="fast").run(stream)
        with pytest.raises(StateError):
            System(machine, engine="fast").run(stream)


def victim_machine(cpu_model):
    """Two nodes with a four-entry victim buffer; scalar loop only."""
    return MachineConfig(
        label=f"diff victim {cpu_model}",
        ncpus=2,
        integration=IntegrationLevel.L2,
        l2_size=8 * KB,
        l2_assoc=2,
        l2_technology=L2Technology.ON_CHIP_SRAM,
        victim_entries=4,
        cpu_model=cpu_model,
        scale=1,
    )


#: Machines of the checked and fault-planned cells: (machine for a CPU
#: model, the trace it replays).
CHECKED_MACHINES = {
    "uni": (lambda cpu: grid_machine(8 * KB, 4, L2Technology.ON_CHIP_SRAM,
                                     cpu_model=cpu),
            lambda: synthetic_trace(17, warmup=8)),
    "mp-rac": (lambda cpu: mp_machine(2, rac_size=8 * KB, cpu_model=cpu),
               lambda: synthetic_mp_trace(9, 2)),
    "victim": (victim_machine, lambda: synthetic_mp_trace(9, 2)),
    # A software TLB: an out-of-order CPU's walks are kernel busy time
    # ahead of the same reference's fetch.
    "tlb": (lambda cpu: grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM,
                                     cpu_model=cpu, tlb_entries=4),
            lambda: synthetic_trace(17, warmup=8)),
    # Two cores per node on islands: remote hops are priced from the
    # requesting node, not the CPU index.
    "cmp-islands": (
        lambda cpu: MachineConfig.chip_multiprocessor(
            4, cores_per_node=2, l2_size=16 * KB, l2_assoc=4, scale=1,
            cpu_model=cpu).with_(topology=TopologySpec.islands(2, 40)),
        lambda: synthetic_mp_trace(9, 8)),
    "victim-islands": (
        lambda cpu: victim_machine(cpu).with_(
            topology=TopologySpec.islands(1, 40)),
        lambda: synthetic_mp_trace(9, 2)),
}

#: Outcome of each (machine, CPU model, check level, fault kind) cell,
#: with the fault planted at the first quantum end past reference 300:
#: the SHA-256 of the result's sorted ``to_dict()`` JSON, or the text
#: of the violation a per-quantum check raises.
PINNED = {
    ('uni', 'inorder', 'per-quantum', None):
        '9aaeb6768e8793e49415d4a16034cfed49cf3a34c2696821c3afd0ef493aa4ad',
    ('uni', 'inorder', 'off', 'duplicate-line'):
        'a50086617d8e845d55a889ed0fa611f9c39d2827bf60c2f13ef4a1bba71ac668',
    ('uni', 'inorder', 'per-quantum', 'duplicate-line'):
        ("invariant 'set-occupancy' violated: 5 lines in a 4-way set "
         '[node=0, cache=n0.l2, set=15]'),
    ('uni', 'inorder', 'per-quantum', 'lru-corrupt'):
        ("invariant 'set-occupancy' violated: 5 lines in a 4-way set "
         '[node=0, cache=n0.l2, set=2]'),
    ('uni', 'ooo', 'per-quantum', None):
        'eecc532208a77c5f21c872a3bba911b6a5f81edd3be8d785c5058b4363dadbbc',
    ('uni', 'ooo', 'off', 'duplicate-line'):
        '93616aa9a46efe8ae75ac3c202014582c8c5189a1dea7b7c817545eb0c4b054c',
    ('uni', 'ooo', 'per-quantum', 'duplicate-line'):
        ("invariant 'set-occupancy' violated: 5 lines in a 4-way set "
         '[node=0, cache=n0.l2, set=15]'),
    ('uni', 'ooo', 'per-quantum', 'lru-corrupt'):
        ("invariant 'set-occupancy' violated: 5 lines in a 4-way set "
         '[node=0, cache=n0.l2, set=2]'),
    ('mp-rac', 'inorder', 'per-quantum', None):
        '63697d41fd4000e4ac8ed23c27efcbc7c37a25a618555df0e1a0978b91950ff8',
    ('mp-rac', 'inorder', 'off', 'duplicate-line'):
        '63697d41fd4000e4ac8ed23c27efcbc7c37a25a618555df0e1a0978b91950ff8',
    ('mp-rac', 'inorder', 'per-quantum', 'duplicate-line'):
        ("invariant 'duplicate-line' violated: the same line is resident "
         'twice in one set [node=1, cache=n1.l2, set=45, line=0x2ad]'),
    ('mp-rac', 'inorder', 'per-quantum', 'lru-corrupt'):
        ("invariant 'set-index' violated: line maps to set 45 but is "
         'resident in set 16 (corrupted placement/LRU move) [node=1, '
         'cache=n1.l2, set=16, line=0x2ad]'),
    ('mp-rac', 'ooo', 'per-quantum', None):
        '76cd03239c38f59fc8ad503923264ae05ae09dad215ae889d1002086f4d1acb7',
    ('mp-rac', 'ooo', 'off', 'duplicate-line'):
        '76cd03239c38f59fc8ad503923264ae05ae09dad215ae889d1002086f4d1acb7',
    ('mp-rac', 'ooo', 'per-quantum', 'duplicate-line'):
        ("invariant 'duplicate-line' violated: the same line is resident "
         'twice in one set [node=1, cache=n1.l2, set=45, line=0x2ad]'),
    ('mp-rac', 'ooo', 'per-quantum', 'lru-corrupt'):
        ("invariant 'set-index' violated: line maps to set 45 but is "
         'resident in set 16 (corrupted placement/LRU move) [node=1, '
         'cache=n1.l2, set=16, line=0x2ad]'),
    ('victim', 'inorder', 'per-quantum', None):
        '4f8cb8f3358b67aad621ccc04790d7df74a8545dacbefb367a718ea3ab32aa84',
    ('victim', 'inorder', 'off', 'duplicate-line'):
        '4f8cb8f3358b67aad621ccc04790d7df74a8545dacbefb367a718ea3ab32aa84',
    ('victim', 'inorder', 'per-quantum', 'duplicate-line'):
        ("invariant 'duplicate-line' violated: the same line is resident "
         'twice in one set [node=1, cache=n1.l2, set=45, line=0x2ad]'),
    ('victim', 'inorder', 'per-quantum', 'lru-corrupt'):
        ("invariant 'set-occupancy' violated: 3 lines in a 2-way set "
         '[node=1, cache=n1.l2, set=16]'),
    ('victim', 'ooo', 'per-quantum', None):
        '49923fc0d3b39b5eb414286314ab3c1731a0eb00a88ca5f8e2a4a11cd928eaba',
    ('victim', 'ooo', 'off', 'duplicate-line'):
        '49923fc0d3b39b5eb414286314ab3c1731a0eb00a88ca5f8e2a4a11cd928eaba',
    ('victim', 'ooo', 'per-quantum', 'duplicate-line'):
        ("invariant 'duplicate-line' violated: the same line is resident "
         'twice in one set [node=1, cache=n1.l2, set=45, line=0x2ad]'),
    ('victim', 'ooo', 'per-quantum', 'lru-corrupt'):
        ("invariant 'set-occupancy' violated: 3 lines in a 2-way set "
         '[node=1, cache=n1.l2, set=16]'),
    ('tlb', 'inorder', 'off', None):
        'f9bde13888a6161cd3f5b62cddece34f94a0e075ecd423f7186eb42e2b6526e8',
    ('tlb', 'ooo', 'off', None):
        'b5569498cfbd3bcb52737e2621681c2fff3ead7e31100c46a54718246f09c5a1',
    ('cmp-islands', 'inorder', 'off', None):
        '0ac35e6b8a6cc865e6ec2aadb639492961f7600958ea91fabf5882b7e17a3e8e',
    ('cmp-islands', 'ooo', 'off', None):
        'dbb95233f384ff23ae86f6f99368853de872069137e836d804ef4ae9b3a26f5c',
    ('victim-islands', 'inorder', 'off', None):
        '845c435ae55d30847f855e520b36e9756c885b9f2793110022f8a1e956969d1f',
    ('victim-islands', 'ooo', 'off', None):
        '4ebe884a5615a46fb707349ec9d78d7160d408a8c62029609f93480895fc23d4',
}


def replay_outcome(system, trace):
    try:
        result = system.run(trace).to_dict()
    except InvariantViolation as exc:
        return str(exc)
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()


class TestCheckedAndFaultedCells:
    """The scalar loop under per-quantum checking and fault plans, and
    on its victim-buffer, CMP and TLB machines, in-order and OOO,
    materialized and streamed: both trace forms give the pinned
    outcome."""

    @pytest.mark.parametrize(
        "cell", sorted(PINNED, key=str),
        ids=lambda c: "-".join(part or "nofault" for part in c))
    def test_outcome_is_pinned(self, cell):
        from repro.trace.stream import StreamedTrace

        name, cpu_model, check, fault = cell
        make_machine, make_trace_ = CHECKED_MACHINES[name]
        machine = make_machine(cpu_model)
        trace = make_trace_()
        for chunk in (None, 7):
            source = (trace if chunk is None
                      else StreamedTrace.from_trace(trace, chunk))
            plan = FaultPlan(fault, at_ref=300, seed=3) if fault else None
            system = System(machine, engine="fast", check=check,
                            fault_plan=plan)
            assert replay_outcome(system, source) == PINNED[cell], chunk

"""Scenario differential cells: every (workload, topology) pair must
replay value-identically on every capable engine.

Two layers:

* a synthetic (workload-independent) topology cross — islands/chiplet
  extras on the staged pipeline vs the scalar engines, including the
  flat-equivalence contract (zero extras == uniform, bit for bit);
* registry-driven cells — each registered scenario's own workload and
  topology, generated through the real OLTP trace generator and
  replayed on its fully-integrated ladder rung by all engines that
  support its processor count.
"""

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import System, simulate
from repro.params import KB
from repro.scenario import all_scenarios, get_scenario
from repro.scenario.topology import UNIFORM, TopologySpec
from repro.trace.generator import build_trace

from tests.core.test_differential import (
    mp_machine,
    run_all_engines,
    run_mp_engines,
    synthetic_mp_trace,
)

TOPOLOGIES = {
    "uniform": UNIFORM,
    "islands": TopologySpec.islands(group_size=2, island_extra=100),
    "chiplet": TopologySpec.chiplet(distance_extra=(0, 40, 90)),
}


class TestTopologyEngineEquivalence:
    """Non-flat topologies ride the staged pipeline's walks unchanged
    (their per-hop extras are charged at retime); its payloads must
    still match the scalar engines exactly."""

    @pytest.mark.parametrize("rac", [None, 256 * KB], ids=["norac", "rac"])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_runresults_identical(self, topology, rac):
        machine = mp_machine(4, rac_size=rac).with_(
            topology=TOPOLOGIES[topology]
        )
        trace = synthetic_mp_trace(21, 4)
        results = run_mp_engines(machine, trace)
        assert results["vectorized-mp"] == results["fast"]

    def test_zero_extra_topologies_are_flat_equivalent(self):
        """An islands/chiplet spec whose extras are all zero is the
        uniform machine, bit for bit — the guarantee that lets the
        engines keep their exact pre-topology fast paths."""
        trace = synthetic_mp_trace(23, 4)
        machine = mp_machine(4)
        baseline = simulate(machine, trace).to_dict()
        baseline.pop("machine")  # the topology block itself differs
        for spec in (TopologySpec.islands(group_size=2, island_extra=0),
                     TopologySpec.chiplet(distance_extra=(0, 0))):
            got = simulate(machine.with_(topology=spec), trace).to_dict()
            got.pop("machine")
            assert got == baseline, spec.summary()

    def test_nonflat_topology_slows_remote_traffic(self):
        """Sanity: island extras must actually show up in the clock
        (guards against a topology that parses but never reaches the
        interconnect arithmetic)."""
        trace = synthetic_mp_trace(25, 4)
        machine = mp_machine(4)
        flat = simulate(machine, trace)
        isles = simulate(
            machine.with_(topology=TOPOLOGIES["islands"]), trace
        )
        assert isles.breakdown.total > flat.breakdown.total
        assert isles.misses.as_dict() == flat.misses.as_dict()


def scenario_trace(scenario, *, txns=8, seed=31):
    """A small real OLTP trace in the scenario's workload."""
    return build_trace(ncpus=scenario.ncpus, scale=64, txns=txns,
                       warmup_txns=10, seed=seed,
                       workload=scenario.workload)


@pytest.mark.parametrize(
    "name", [s.name for s in all_scenarios()]
)
def test_registered_scenario_engines_identical(name):
    """Acceptance cell: the scenario's own workload × topology, on its
    fully-integrated ladder rung (the RAC rung when it has one),
    replays value-identically across every capable engine."""
    scenario = get_scenario(name)
    machine = scenario.machines(scale=64)[-1][1]
    trace = scenario_trace(scenario)
    if scenario.ncpus == 1:
        results = run_all_engines(machine, trace)
        assert results["vectorized"] == results["fast"]
    else:
        results = run_mp_engines(machine, trace)
        assert results["vectorized-mp"] == results["fast"]


def test_workload_changes_the_trace_not_the_contract():
    """Different workloads on the same seed produce different traces
    (the mix/skew axes are live), while the baseline scenario's trace
    is byte-identical to a plain build_trace call (the bit-identity
    contract for the paper's own points)."""
    base = get_scenario("tpcb-uni")
    zipf = get_scenario("zipf-uni")
    t_base = scenario_trace(base)
    t_plain = build_trace(ncpus=1, scale=64, txns=8, warmup_txns=10, seed=31)
    t_zipf = scenario_trace(zipf)
    flat = lambda t: [(q.cpu, tuple(q.refs)) for q in t.quanta]
    assert flat(t_base) == flat(t_plain)
    assert flat(t_base) != flat(t_zipf)


def test_read_heavy_mix_shifts_write_share():
    """The read-heavy mix must produce measurably fewer writes than
    TPC-B — the workload axis reaches the reference stream itself."""
    from repro.cpu.events import decode

    def write_share(trace):
        writes = total = 0
        for quantum in trace.quanta:
            for ref in quantum.refs:
                total += 1
                writes += decode(ref)[1]
        return writes / total

    tpcb = write_share(scenario_trace(get_scenario("tpcb-uni")))
    ro = write_share(scenario_trace(get_scenario("read-heavy-uni")))
    assert ro < tpcb * 0.7

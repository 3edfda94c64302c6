"""Property test: fast and general loops agree *and* stay invariant-clean.

The two replay loops are the highest-risk duplication in the codebase.
Running both under per-quantum checking on randomized traces asserts
not just equal statistics (the metamorphic tests do that) but that
every intermediate machine state both loops pass through is legal.
"""

import random

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import System
from repro.cpu.events import encode
from repro.trace.synthetic import make_trace


def _random_trace(seed, ncpus=4):
    rng = random.Random(seed)
    body = []
    for _ in range(80):
        refs = []
        for _ in range(rng.randint(1, 35)):
            instr = rng.random() < 0.35
            refs.append(encode(
                rng.randrange(500),
                write=not instr and rng.random() < 0.4,
                instr=instr,
                kernel=rng.random() < 0.25,
            ))
        body.append((rng.randrange(ncpus), refs))
    return make_trace(ncpus, body, page_bytes=256,
                      warmup_quanta=rng.randrange(20))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_loops_agree_under_per_quantum_checking(seed):
    machine = MachineConfig.base(4, l2_size=8192, l2_assoc=2, scale=1)
    fast_sys = System(machine, check="per-quantum")
    fast = fast_sys.run(_random_trace(seed))
    general_sys = System(machine, engine="general", check="per-quantum")
    general = general_sys.run(_random_trace(seed))

    assert fast_sys.checker.checks_run > 1
    assert general_sys.checker.checks_run == fast_sys.checker.checks_run
    assert fast.breakdown.total == general.breakdown.total
    assert fast.misses.as_dict() == general.misses.as_dict()
    assert fast.l1.i_refs == general.l1.i_refs
    assert fast.l1.d_refs == general.l1.d_refs
    assert fast.l2_hits == general.l2_hits
    assert fast.trace_refs == general.trace_refs


@pytest.mark.parametrize("seed", [11, 12])
def test_uniprocessor_agreement(seed):
    machine = MachineConfig.integrated_l2_mc(l2_size=16384, l2_assoc=4, scale=1)
    fast = System(machine, check="per-quantum").run(_random_trace(seed, ncpus=1))
    general = System(machine, engine="general",
                     check="per-quantum").run(_random_trace(seed, ncpus=1))
    assert fast.breakdown.total == general.breakdown.total
    assert fast.misses.as_dict() == general.misses.as_dict()

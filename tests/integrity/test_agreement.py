"""Property test: the scalar loop stays invariant-clean and agrees with
the staged walk.

The scalar loop runs under per-quantum checking on randomized traces,
so every intermediate machine state it passes through is legal; the
staged walk, which keeps no per-reference cache state, is checked at
the end of its run.  Their statistics must be equal.
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
    staged_sys = System(machine, check="end-of-run")
    staged = staged_sys.run(_random_trace(seed))

    assert fast_sys.engine == "fast"
    assert staged_sys.engine == "vectorized-mp"
    assert fast_sys.checker.checks_run > 1
    assert staged_sys.checker.checks_run == 1
    assert fast.to_dict() == staged.to_dict()


@pytest.mark.parametrize("seed", [11, 12])
def test_uniprocessor_agreement(seed):
    machine = MachineConfig.integrated_l2_mc(l2_size=16384, l2_assoc=4, scale=1)
    fast = System(machine, check="per-quantum").run(_random_trace(seed, ncpus=1))
    staged = System(machine,
                    check="end-of-run").run(_random_trace(seed, ncpus=1))
    assert fast.to_dict() == staged.to_dict()

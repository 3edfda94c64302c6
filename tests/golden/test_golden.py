"""Golden-regression tests: frozen traces, frozen RunResults.

Fails on any unflagged semantic drift anywhere in the replay stack —
engines, miss taxonomy, latency tables, stat plumbing.  If the drift
is intentional, regenerate and commit the fixture diff::

    PYTHONPATH=src python -m tests.golden.regen

See ``tests/golden/regen.py`` for what is frozen and why.
"""

import json

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import System, simulate

from tests.golden import regen

REGEN_HINT = (
    "golden fixture drifted; if intentional, regenerate with "
    "`PYTHONPATH=src python -m tests.golden.regen` and commit the diff"
)


def load_case(name):
    trace = regen.trace_from_dict(
        json.loads(regen.trace_path(name).read_text())
    )
    expected = json.loads(regen.expected_path(name).read_text())
    machine = MachineConfig.from_dict(expected["machine"])
    return machine, trace, expected


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_runresult_exact(name):
    machine, trace, expected = load_case(name)
    got = simulate(machine, trace).to_dict()
    assert got == expected, REGEN_HINT


@pytest.mark.parametrize("name", ["uni", "zipf_uni"])
def test_golden_uni_identical_across_engines(name):
    """The frozen uniprocessor expectations hold for all
    uniprocessor-capable engines, not just the auto-selected one
    (zipf_uni pins the Zipf-skewed scenario workload)."""
    machine, trace, expected = load_case(name)
    for engine in ("fast", "vectorized"):
        got = System(machine, engine=engine).run(trace).to_dict()
        assert got == expected, f"engine={engine}: {REGEN_HINT}"


@pytest.mark.parametrize("name", ["mp", "mp8rac", "islands_mp8"])
def test_golden_mp_identical_across_engines(name):
    """The frozen multiprocessor expectations hold bit-for-bit for
    every MP-capable engine — in particular the staged
    ``vectorized-mp`` pipeline must reproduce the scalar loop's
    payloads exactly (the mp8rac case exercises its RAC miss path, and
    islands_mp8 the non-flat topology routing)."""
    machine, trace, expected = load_case(name)
    for engine in ("fast", "vectorized-mp"):
        got = System(machine, engine=engine).run(trace).to_dict()
        assert got == expected, f"engine={engine}: {REGEN_HINT}"


def test_fixtures_are_in_sync_with_regen_config():
    """The checked-in machine payloads match the regen script's CASES,
    so a config edit without regeneration is flagged immediately."""
    for name, case in regen.CASES.items():
        expected = json.loads(regen.expected_path(name).read_text())
        assert expected["machine"] == case["machine"]().to_dict(), (
            f"{name}: {REGEN_HINT}"
        )

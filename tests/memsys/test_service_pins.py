"""Pins of the staged replay's ``_Service`` miss path on RAC machines.

``_Service.miss`` works directly on the directory's dicts, the flat
node states and each RAC's cache sets.  These cells pin what it leaves
behind on the paper's 8-node RAC machines, in-order and out-of-order:
the ``RunResult``, the final RAC contents (MRU order) and dirty sets,
the directory, and every counter the RAC objects keep (``probes`` and
``hits``, and the RAC cache's ``hits``, ``misses``, ``evictions`` and
``writebacks``).  The scalar loop, which drives the real
:class:`~repro.coherence.protocol.DirectoryProtocol` and
:class:`~repro.memsys.rac.RemoteAccessCache`, must leave the same.

The pins were recorded before the miss path was flattened; to record
them again after an intended change::

    PYTHONPATH=src python -m tests.memsys.test_service_pins

A second test checks that each branch of the miss path fires on these
cells, so the pins cover it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import System
from repro.memsys.vectorized_mp import _Service
from repro.params import MB
from repro.scenario import get_scenario

from tests.golden import regen

HERE = Path(__file__).resolve().parent
PINS = HERE / "service_pins.json"


def _golden_trace():
    """The frozen 8-CPU OLTP trace of the golden ``mp8rac`` case."""
    return regen.trace_from_dict(
        json.loads(regen.trace_path("mp8rac").read_text()))


#: name -> machine for a CPU model.  The 1 MB RAC (8 KB at scale 128)
#: evicts, so RAC-fill victims show up.
CELLS = {
    "all-rac": lambda cpu: MachineConfig.fully_integrated(
        8, scale=128, rac_size=8 * MB, cpu_model=cpu),
    "all-rac-repl": lambda cpu: MachineConfig.fully_integrated(
        8, scale=128, rac_size=8 * MB, replicate_code=True, cpu_model=cpu),
    "all-smallrac": lambda cpu: MachineConfig.fully_integrated(
        8, scale=128, rac_size=1 * MB, cpu_model=cpu),
    "all-smallrac-repl": lambda cpu: MachineConfig.fully_integrated(
        8, scale=128, rac_size=1 * MB, replicate_code=True, cpu_model=cpu),
    "islands-rac": lambda cpu: MachineConfig.fully_integrated(
        8, scale=128, rac_size=8 * MB, cpu_model=cpu).with_(
            topology=get_scenario("islands-mp8").topology),
    "chiplet-rac": lambda cpu: get_scenario("chiplet-mp8").machines(
        128)[-1][1].with_(cpu_model=cpu),
}
CPU_MODELS = ("inorder", "ooo")


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fingerprint(machine: MachineConfig, trace, engine: str) -> dict:
    """What a replay leaves behind: digests of the result and of the
    final RAC and directory state, and the RAC counters per node."""
    system = System(machine, engine=engine)
    result = system.run(trace).to_dict()
    racs = system.racs
    state = {
        "racs": [[[list(ways), sorted(dirty)]
                  for ways, dirty in rac.cache.sets()] for rac in racs],
        "directory": sorted(
            [line, sorted(sharers), owner]
            for line, sharers, owner in system.protocol.directory.entries()),
    }
    return {
        "result": _sha(result),
        "state": _sha(state),
        "counters": [[rac.probes, rac.hits, rac.cache.hits,
                      rac.cache.misses, rac.cache.evictions,
                      rac.cache.writebacks] for rac in racs],
    }


def _cells():
    return [(name, cpu) for name in CELLS for cpu in CPU_MODELS]


@pytest.fixture(scope="module")
def trace():
    return _golden_trace()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("engine", ["vectorized-mp", "fast"])
@pytest.mark.parametrize("name,cpu_model", _cells(),
                         ids=[f"{n}-{c}" for n, c in _cells()])
def test_rac_replay_is_pinned(name, cpu_model, engine, trace, pins):
    got = fingerprint(CELLS[name](cpu_model), trace, engine)
    assert got == pins[f"{name}/{cpu_model}"]


def _lines_run(func, lines, body) -> set:
    """``(line, write)`` for each of ``lines`` of ``func`` that ran while
    ``body()`` ran, with whether ``func``'s local ``write`` was set."""
    code = func.__code__
    seen = set()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            seen.add((frame.f_lineno, bool(frame.f_locals.get("write"))))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        body()
    finally:
        sys.settrace(previous)
    return seen


def _line_of(func, text: str) -> int:
    """The one line of ``func``'s source that contains ``text``."""
    lines, first = inspect.getsourcelines(func)
    found = [first + i for i, line in enumerate(lines) if text in line]
    assert len(found) == 1, (text, found)
    return found[0]


#: Each branch of ``_Service.miss``: a statement only it runs, and
#: whether the miss must be a write (``None``: either).
BRANCHES = {
    "RAC read hit": ("ev = EV_RAC_HIT", False),
    "RAC write hit taking ownership":
        ("slot = 3 * nn + 2 * nn * nn + row", True),
    "3-hop from the owner's dirty RAC": ("cpu.rac_dirty += 1", None),
    "RAC-fill victim the L2 no longer holds":
        ("self.wbacks += rdirty", None),
}


def test_each_miss_branch_fires_on_the_pinned_cells(trace):
    where = {branch: _line_of(_Service.miss, text)
             for branch, (text, _) in BRANCHES.items()}
    seen = set()
    for name, cpu_model in _cells():
        machine = CELLS[name](cpu_model)
        seen |= _lines_run(
            _Service.miss, set(where.values()),
            lambda: System(machine, engine="vectorized-mp").run(trace))
    missing = [branch for branch, (_, write) in BRANCHES.items()
               if not any(line == where[branch] and write in (None, w)
                          for line, w in seen)]
    assert not missing


def record() -> None:
    """Write the pins from the current code."""
    trace = _golden_trace()
    pins = {f"{name}/{cpu}": fingerprint(CELLS[name](cpu), trace,
                                         "vectorized-mp")
            for name, cpu in _cells()}
    rows = [f" {json.dumps(key)}: {json.dumps(pins[key], sort_keys=True)}"
            for key in sorted(pins)]
    PINS.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    record()

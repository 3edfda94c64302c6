"""Golden-fixture regeneration: ``python -m tests.golden.regen``.

The golden tests (``tests/golden/test_golden.py``) replay two tiny
*frozen* traces — checked-in JSON, not regenerated per run — and
compare the full ``RunResult.to_dict()`` payload against checked-in
expectations.  Any semantic drift in the replay engines, the miss
taxonomy, the latency tables or the stat plumbing fails the test.

When a change is *supposed* to shift the numbers (a modelling fix, a
latency-table change), regenerate the expectations and commit the
diff alongside the change so review sees exactly what moved::

    PYTHONPATH=src python -m tests.golden.regen

The traces themselves are regenerated too, but from fixed seeds and a
pinned generator configuration; if the trace JSON diffs, the *trace
generator's* semantics moved, which is itself worth flagging in the
change description.

The goldens replay fully materialized traces only.  The streaming
path needs no fixtures of its own: ``stream_trace`` is pinned
chunk-for-chunk against ``build_trace`` by
``tests/trace/test_stream_properties.py``, and chunked replay is held
to the materialized engines' exact payloads by the streaming
differential cells in ``tests/core/test_differential.py`` — so these
goldens transitively freeze the streamed results too.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.params import MB
from repro.scenario import get_scenario
from repro.trace.generator import OltpTrace, build_trace
from repro.trace.synthetic import make_trace

HERE = Path(__file__).resolve().parent


def _scenario_workload(name: str):
    """The registered scenario's workload, so the golden stays pinned
    to the same spec users run (a registry edit without regeneration
    is flagged by the fixture-sync test)."""
    return get_scenario(name).workload


def _scenario_topology(name: str):
    return get_scenario(name).topology


#: The frozen workloads: tiny OLTP runs — one uniprocessor (replayed
#: by the vectorized engine under auto-selection), one 2-CPU
#: multiprocessor (staged pipeline, full coherence), one 8-node
#: RAC configuration (the pipeline's RAC miss path), plus two scenario
#: points: the Zipf-skewed uniprocessor workload and the
#: hardware-islands 8-node topology (its per-hop extras
#: are charged when the run's memory profile is retimed).
CASES = {
    "uni": {
        "machine": lambda: MachineConfig.base(1, scale=128),
        "trace": lambda: build_trace(ncpus=1, scale=128, txns=12,
                                     warmup_txns=30, seed=41),
    },
    "mp": {
        "machine": lambda: MachineConfig.fully_integrated(2, scale=128),
        "trace": lambda: build_trace(ncpus=2, scale=128, txns=16,
                                     warmup_txns=30, seed=43),
    },
    "mp8rac": {
        "machine": lambda: MachineConfig.fully_integrated(
            8, scale=128, rac_size=8 * MB
        ),
        "trace": lambda: build_trace(ncpus=8, scale=128, txns=24,
                                     warmup_txns=30, seed=47),
    },
    "zipf_uni": {
        "machine": lambda: MachineConfig.base(1, scale=128),
        "trace": lambda: build_trace(
            ncpus=1, scale=128, txns=12, warmup_txns=30, seed=53,
            workload=_scenario_workload("zipf-uni"),
        ),
    },
    "islands_mp8": {
        "machine": lambda: MachineConfig.fully_integrated(
            8, scale=128
        ).with_(topology=_scenario_topology("islands-mp8")),
        "trace": lambda: build_trace(ncpus=8, scale=128, txns=24,
                                     warmup_txns=30, seed=59),
    },
}


def trace_to_dict(trace: OltpTrace) -> dict:
    """JSON-safe frozen form of everything the replay consumes."""
    return {
        "ncpus": trace.ncpus,
        "scale": trace.scale,
        "page_bytes": trace.page_bytes,
        "text_pages": sorted(trace.text_pages),
        "warmup_quanta": trace.warmup_quanta,
        "measured_txns": trace.measured_txns,
        "quanta": [[q.cpu, list(q.refs)] for q in trace.quanta],
    }


def trace_from_dict(data: dict) -> OltpTrace:
    """Rebuild a frozen trace; exact inverse of :func:`trace_to_dict`."""
    return make_trace(
        data["ncpus"],
        [(cpu, refs) for cpu, refs in data["quanta"]],
        page_bytes=data["page_bytes"],
        text_pages=frozenset(data["text_pages"]),
        warmup_quanta=data["warmup_quanta"],
        measured_txns=data["measured_txns"],
        scale=data["scale"],
    )


def trace_path(name: str) -> Path:
    return HERE / f"{name}_trace.json"


def expected_path(name: str) -> Path:
    return HERE / f"{name}_expected.json"


def regenerate() -> None:
    for name, case in CASES.items():
        trace = case["trace"]()
        payload = trace_to_dict(trace)
        trace_path(name).write_text(
            json.dumps(payload, indent=None, separators=(",", ":"),
                       sort_keys=True) + "\n"
        )
        # Simulate the *frozen* form, exactly as the test will.
        result = simulate(case["machine"](), trace_from_dict(payload))
        expected_path(name).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"regenerated {name}: {trace.total_refs} refs, "
              f"{len(payload['quanta'])} quanta")


if __name__ == "__main__":
    regenerate()

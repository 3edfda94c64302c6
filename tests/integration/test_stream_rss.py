"""RSS-guard regression: streaming keeps memory flat as workloads grow.

Tier-2 (marked ``slow``; deselected by default, run with ``-m slow``).
Measures peak RSS in fresh subprocesses — ``ru_maxrss`` is a
process-lifetime high-water mark, so in-process before/after readings
would be meaningless — and asserts the scale-out contract: a streamed
run 100x the reference transaction count must peak within 1.25x of the
same path's run at the reference count.  The store case streams
through ``StreamingTraceStore``, whose generator runs in a producer
process, and counts the larger of the two processes' peaks.

The bound is against the same path rather than a materialized run
because at this size a whole 100x trace is small beside the process's
baseline: a run that materializes the 100x stream peaks at about 2.0x
the reference-sized materialized run, and a producer that keeps every
chunk it sent at about 1.8x, so a 2x bound over the materialized run
passes both.  Against the same path both are well past 1.25x, and so
is a decode that holds the whole stream.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SCALE_X = 100
#: A 100x run's peak over the same path's peak at the reference count.
RSS_LIMIT = 1.25

#: Quick-sized reference workload so the 100x run stays test-sized.
REF = dict(scale=64, txns=120, seed=7)

CHILD = r"""
import json, resource, sys, time

mode, scale, txns, seed = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
from repro.core.machine import MachineConfig
from repro.core.system import simulate

machine = MachineConfig(label="rss-guard", ncpus=1)
if mode == "streamed":
    from repro.trace.generator import stream_trace

    trace = stream_trace(ncpus=1, scale=scale, txns=txns, seed=seed)
    result = simulate(machine, trace, engine="fast")
    measured = trace.measured_refs
else:
    from repro.runner.tracestore import StreamingTraceStore, TraceSpec

    spec = TraceSpec(ncpus=1, scale=scale, txns=txns, seed=seed)
    trace = StreamingTraceStore(spill_dir=None).stream(spec)
    result = simulate(machine, trace, engine="fast")
    measured = trace.measured_refs
# The store generates in a producer process, reaped once the replay
# has drained it: the run's peak is the larger of the two processes'.
print(json.dumps({
    "measured_refs": measured,
    "cycles": result.breakdown.total,
    "maxrss_kb": max(resource.getrusage(who).ru_maxrss for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)),
}))
"""


def _measure(mode: str, txns: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, mode, str(REF["scale"]), str(txns),
         str(REF["seed"])],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout)


def _check_flat(mode: str) -> None:
    reference = _measure(mode, REF["txns"])
    scaled = _measure(mode, REF["txns"] * SCALE_X)

    rss_ratio = scaled["maxrss_kb"] / max(1, reference["maxrss_kb"])
    refs_ratio = (scaled["measured_refs"]
                  / max(1, reference["measured_refs"]))
    detail = {"reference": reference, "scaled": scaled,
              "rss_ratio": rss_ratio, "refs_ratio": refs_ratio}
    # The scaled run really is ~100x the work...
    assert refs_ratio >= 0.9 * SCALE_X, detail
    # ...at essentially reference-run memory.
    assert rss_ratio <= RSS_LIMIT, detail


@pytest.mark.slow
def test_streamed_100x_rss_flat():
    _check_flat("streamed")


@pytest.mark.slow
def test_store_stream_100x_rss_flat():
    """The store's producer-process path, counted across both
    processes: generation moved out of the consumer must not hide its
    memory."""
    _check_flat("store")

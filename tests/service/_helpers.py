"""Plain helpers shared by the service tests (fixtures live in
conftest.py; these are importable functions)."""

from __future__ import annotations

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.params import BASE_L2_SIZE
from repro.runner import SimJob, TraceSpec
from repro.runner.tracestore import TraceStore

#: Scale/size making one simulation take well under a second.
SCALE = 256
TXNS = 15


def tiny_job(index: int = 0, ncpus: int = 1,
             l2_size: int = BASE_L2_SIZE) -> SimJob:
    """A cheap, hash-distinct job (index varies the machine label).

    Jobs with equal ``ncpus`` and ``l2_size`` share one cache geometry,
    so the service replays one and retimes the others.
    """
    spec = TraceSpec(ncpus=ncpus, scale=SCALE, txns=TXNS,
                     warmup_txns=5, seed=3)
    machine = MachineConfig.base(ncpus, l2_size=l2_size, scale=SCALE).with_(
        label=f"svc-test-{index}")
    return SimJob(spec=spec, machine=machine)


def broken_job() -> SimJob:
    """A job that fails terminally in the worker: the trace is a 2-CPU
    workload but the machine wants 1 CPU (a replay mismatch)."""
    spec = TraceSpec(ncpus=2, scale=SCALE, txns=TXNS,
                     warmup_txns=5, seed=3)
    return SimJob(spec=spec, machine=MachineConfig.base(1, scale=SCALE))


def simulated_result(job: SimJob, store: TraceStore):
    """The serial ground-truth result for ``job``."""
    return simulate(job.machine, store.get(job.spec), check=job.check)

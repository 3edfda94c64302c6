"""Shared machinery for the per-figure experiment drivers.

Every figure driver follows the same pattern: name the OLTP workload
for its processor count as a :class:`~repro.runner.TraceSpec`, declare
a list of machine configurations against it as jobs
(:func:`config_jobs`), and build a :class:`Figure` from their results
whose rows are normalized the way the paper normalizes that figure
(:func:`build_figure`).  The jobs follow from :class:`Settings` alone,
so ``repro-oltp all`` runs every figure's jobs inline as one batch and
``repro-oltp campaign`` fans the same batch out across workers (with
result caching).  Traces materialize through the process-wide bounded
:class:`~repro.runner.TraceStore`, so a full reproduction run
generates each workload exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.machine import MachineConfig
from repro.core.results import RunResult
from repro.core.system import System
from repro.runner import SimJob, TraceSpec, default_trace_store
from repro.trace.generator import OltpTrace


@dataclass(frozen=True)
class Settings:
    """Run-size knobs for the experiment drivers.

    ``quick()`` is sized for CI smoke runs; ``paper()`` for the full
    benchmark harness.  ``mp_txns`` is larger than ``uni_txns`` because
    8 CPUs split the transaction stream.  ``check`` selects the
    integrity-checking tier every simulation runs with (see
    :class:`~repro.integrity.checker.CheckLevel`).
    """

    scale: int = 32
    uni_txns: int = 400
    mp_txns: int = 1200
    seed: int = 7
    check: str = "off"

    @classmethod
    def paper(cls) -> "Settings":
        return cls()

    @classmethod
    def quick(cls) -> "Settings":
        return cls(scale=64, uni_txns=120, mp_txns=320)


def trace_spec(ncpus: int, settings: Settings) -> TraceSpec:
    """The workload spec the drivers use for ``ncpus`` processors."""
    txns = settings.uni_txns if ncpus == 1 else settings.mp_txns
    return TraceSpec(
        ncpus=ncpus, scale=settings.scale, txns=txns, seed=settings.seed
    )


def get_trace(ncpus: int, settings: Settings) -> OltpTrace:
    """Materialize the OLTP trace for ``ncpus`` processors.

    Resolves through the process-wide bounded
    :class:`~repro.runner.TraceStore` — the same code path campaign
    workers use — so repeated calls reuse one in-memory trace and,
    when a spill directory is configured, one on-disk archive.
    """
    return default_trace_store().get(trace_spec(ncpus, settings))


def clear_trace_cache() -> None:
    """Drop the in-memory traces (tests use this to bound memory)."""
    default_trace_store().clear()


@dataclass
class Row:
    """One bar of a figure: a labelled, normalized simulation result."""

    label: str
    result: RunResult
    time_norm: float = 0.0
    miss_norm: float = 0.0
    #: Replay engine the configuration resolved to ("fast",
    #: "vectorized" or "vectorized-mp") — provenance for plots and
    #: benchmark reports; never part of the numbers themselves.
    engine: str = ""

    @property
    def breakdown_norm(self) -> dict:
        """Execution-time components scaled so the baseline totals 100."""
        b = self.result.breakdown
        total = b.total or 1.0
        f = self.time_norm / total
        return {
            "CPU": b.busy * f,
            "L2Hit": b.l2_hit * f,
            "LocStall": b.local_stall * f,
            "RemStall": b.remote_stall * f,
        }

    def miss_breakdown_norm(self, baseline_misses: float) -> dict:
        """Miss categories scaled so the baseline's total is 100."""
        return self.result.misses.normalized_to(baseline_misses or 1)


@dataclass
class Figure:
    """A reproduced figure: titled, normalized rows plus shape notes."""

    figure_id: str
    title: str
    rows: List[Row] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    baseline_index: int = 0

    @property
    def baseline(self) -> Row:
        return self.rows[self.baseline_index]

    def row(self, label: str) -> Row:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"{self.figure_id} has no row {label!r}")

    def speedup(self, label: str, over: Optional[str] = None) -> float:
        base = self.row(over) if over else self.baseline
        return base.result.exec_time / self.row(label).result.exec_time


def config_jobs(labelled_configs: List[Tuple[str, MachineConfig]],
                spec: TraceSpec, check: str = "off") -> List[SimJob]:
    """One job per configuration, all against ``spec``."""
    return [SimJob(spec=spec, machine=machine, check=check)
            for _, machine in labelled_configs]


def build_figure(
    figure_id: str,
    title: str,
    labelled_configs: List[Tuple[str, MachineConfig]],
    results: Sequence[RunResult],
    baseline_index: int = 0,
    check: str = "off",
) -> Figure:
    """A figure of ``results`` (one per configuration, in order),
    normalized against the baseline."""
    rows = [
        Row(label, result,
            engine=System.select_engine(machine, check=check))
        for (label, machine), result in zip(labelled_configs, results)
    ]
    base_time = rows[baseline_index].result.exec_time or 1.0
    base_miss = rows[baseline_index].result.misses.total or 1
    for row in rows:
        row.time_norm = 100.0 * row.result.exec_time / base_time
        row.miss_norm = 100.0 * row.result.misses.total / base_miss
    return Figure(figure_id, title, rows, baseline_index=baseline_index)

"""Figures 11 and 12: remote access caches on a fully integrated design.

Figure 11 looks at L2 *miss composition* with and without an 8 MB
8-way RAC for a 1 MB 4-way on-chip L2, with and without OS-based
instruction replication.  Figure 12 compares the *performance* of the
RAC against simply building a slightly larger L2 (1.25 MB — the area
the RAC's on-chip tags would have cost), and shows the RAC is useless
at 2 MB 8-way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.machine import MachineConfig
from repro.core.results import RunResult
from repro.experiments.common import (
    Figure,
    Settings,
    build_figure,
    config_jobs,
    trace_spec,
)
from repro.params import MB
from repro.runner import SimJob, run_simulations

RAC_SIZE = 8 * MB
NCPUS = 8


def _machine(scale: int, l2_size: int, l2_assoc: int, rac: bool, repl: bool) -> MachineConfig:
    return MachineConfig.fully_integrated(
        NCPUS,
        l2_size=l2_size,
        l2_assoc=l2_assoc,
        rac_size=RAC_SIZE if rac else None,
        replicate_code=repl,
        scale=scale,
    )


@dataclass
class RacMissStudy:
    """Figure 11: miss-mix shifts from the RAC, ± code replication."""

    no_rac_no_repl: RunResult
    rac_no_repl: RunResult
    no_rac_repl: RunResult
    rac_repl: RunResult

    @property
    def hit_rate_no_repl(self) -> float:
        """Paper: ~42 %."""
        return self.rac_no_repl.rac.hit_rate

    @property
    def hit_rate_repl(self) -> float:
        """Paper: ~30 %."""
        return self.rac_repl.rac.hit_rate

    def rows(self):
        return [
            ("NoRAC NoRepl", self.no_rac_no_repl),
            ("RAC NoRepl", self.rac_no_repl),
            ("NoRAC Repl", self.no_rac_repl),
            ("RAC Repl", self.rac_repl),
        ]

    def render(self) -> str:
        base = self.no_rac_no_repl.misses.total or 1
        lines = [
            "Figure 11: RAC impact on L2 miss mix — 8 CPUs, 1M4w L2",
            f"{'configuration':14s} {'total':>7s} {'I-Loc':>7s} {'I-Rem':>7s} "
            f"{'D-Loc':>7s} {'D-RemC':>7s} {'D-RemD':>7s} {'RAC hit':>8s}",
        ]
        for label, result in self.rows():
            m = result.misses.normalized_to(base)
            hit = f"{result.rac.hit_rate:7.0%}" if result.rac.probes else "      -"
            lines.append(
                f"{label:14s} {m['total']:7.1f} {m['I-Loc']:7.1f} {m['I-Rem']:7.1f} "
                f"{m['D-Loc']:7.1f} {m['D-RemClean']:7.1f} {m['D-RemDirty']:7.1f} {hit:>8s}"
            )
        lines.append(
            "inval/write: "
            + ", ".join(
                f"{label}={r.protocol.invalidations_per_write:.2f}"
                for label, r in self.rows()
            )
            + "   (paper: ~1-in-6 without RAC, ~1-in-3 with)"
        )
        return "\n".join(lines)


def miss_jobs(settings: Settings) -> List[SimJob]:
    """Figure 11's jobs."""
    spec = trace_spec(NCPUS, settings)
    scale = settings.scale
    machines = [
        _machine(scale, 1 * MB, 4, False, False),
        _machine(scale, 1 * MB, 4, True, False),
        _machine(scale, 1 * MB, 4, False, True),
        _machine(scale, 1 * MB, 4, True, True),
    ]
    return [SimJob(spec=spec, machine=m, check=settings.check)
            for m in machines]


def build_miss_study(results: Sequence[RunResult]) -> RacMissStudy:
    """Figure 11 from the results of :func:`miss_jobs`."""
    return RacMissStudy(
        no_rac_no_repl=results[0],
        rac_no_repl=results[1],
        no_rac_repl=results[2],
        rac_repl=results[3],
    )


def run_miss_study(settings: Optional[Settings] = None) -> RacMissStudy:
    """Figure 11."""
    settings = settings or Settings.paper()
    return build_miss_study(run_simulations(miss_jobs(settings)))


def _perf_configs(scale: int):
    return [
        ("1M4w NoRAC", _machine(scale, 1 * MB, 4, False, True)),
        ("1M4w RAC", _machine(scale, 1 * MB, 4, True, True)),
        ("1.25M4w NoRAC", _machine(scale, 1280 * 1024, 4, False, True)),
        ("2M8w NoRAC", _machine(scale, 2 * MB, 8, False, True)),
        ("2M8w RAC", _machine(scale, 2 * MB, 8, True, True)),
    ]


def perf_jobs(settings: Settings) -> List[SimJob]:
    """Figure 12's jobs."""
    return config_jobs(_perf_configs(settings.scale),
                       trace_spec(NCPUS, settings), settings.check)


def build_perf_study(settings: Settings,
                     results: Sequence[RunResult]) -> Figure:
    """Figure 12: RAC performance vs spending the tag area on more L2.

    All configurations use instruction replication (as the paper does
    for this comparison).  The 1.25 MB L2 models reclaiming the area
    of the RAC's on-chip tags.
    """
    figure = build_figure(
        "Figure 12", "RAC performance with different L2 sizes — 8 CPUs",
        _perf_configs(settings.scale), results, check=settings.check,
    )
    rac_gain = 1 - figure.row("1M4w RAC").time_norm / 100.0
    figure.notes.append(
        f"RAC benefit at 1M4w = {rac_gain:.1%} execution-time reduction "
        "(paper: 4.3%)"
    )
    bigger = figure.row("1.25M4w NoRAC").time_norm
    withrac = figure.row("1M4w RAC").time_norm
    figure.notes.append(
        f"1.25M L2 without RAC ({bigger:.1f}) vs 1M L2 with RAC ({withrac:.1f}) "
        "(paper: the bigger L2 wins once tag area is accounted)"
    )
    r2m = figure.speedup("2M8w RAC", over="2M8w NoRAC")
    figure.notes.append(
        f"RAC at 2M8w changes performance by {r2m:.3f}x (paper: ~none, hit rate <10%)"
    )
    return figure


def run_perf_study(settings: Optional[Settings] = None) -> Figure:
    """Figure 12 (see :func:`build_perf_study`)."""
    settings = settings or Settings.paper()
    return build_perf_study(settings, run_simulations(perf_jobs(settings)))

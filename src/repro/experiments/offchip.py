"""Figures 5 and 6: behaviour of OLTP with off-chip L2 configurations.

The sweep varies the external L2 from 1 MB to 8 MB in direct-mapped
and 4-way organizations (Base latencies), plus the Conservative Base
with an 8 MB 4-way cache; Figure 5 is the uniprocessor, Figure 6 the
8-processor system.  Everything is normalized to the 1 MB
direct-mapped Base configuration.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.machine import MachineConfig, cache_label
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

SIZES_MB = (1, 2, 4, 8)


def sweep_configs(ncpus: int, scale: int):
    """The labelled off-chip sweep configurations (also used by selftest)."""
    configs = []
    for assoc in (1, 4):
        for size_mb in SIZES_MB:
            machine = MachineConfig.base(
                ncpus, l2_size=size_mb * MB, l2_assoc=assoc, scale=scale
            )
            configs.append((cache_label(size_mb * MB, assoc), machine))
    configs.append(("Cons 8M4w", MachineConfig.conservative_base(ncpus, scale=scale)))
    return configs


def _annotate(figure: Figure, ncpus: int) -> None:
    base_misses = figure.baseline.result.misses.total or 1
    m8m1w = figure.row("8M1w").result.misses.total
    m2m4w = figure.row("2M4w").result.misses.total
    m8m4w = figure.row("8M4w").result.misses.total
    figure.notes.append(
        f"2M4w misses / 8M1w misses = {m2m4w / max(1, m8m1w):.2f} "
        "(paper: < 1; conflict misses dominate the big direct-mapped cache)"
    )
    figure.notes.append(
        f"1M1w -> 8M4w miss reduction = {base_misses / max(1, m8m4w):.1f}x "
        "(paper: ~50x uniprocessor; communication-bounded in the MP)"
    )
    if ncpus > 1:
        share = figure.row("8M4w").result.misses.dirty_share
        figure.notes.append(
            f"dirty 3-hop share at 8M4w = {share:.0%} (paper: >50%)"
        )


def jobs(ncpus: int, settings: Settings) -> List[SimJob]:
    """The off-chip sweep's jobs for 1 (Figure 5) or 8 (Figure 6) CPUs."""
    return config_jobs(sweep_configs(ncpus, settings.scale),
                       trace_spec(ncpus, settings), settings.check)


def build(ncpus: int, settings: Settings,
          results: Sequence[RunResult]) -> Figure:
    """Figure 5 or 6 from the results of :func:`jobs`."""
    fig_id = "Figure 5" if ncpus == 1 else "Figure 6"
    title = (
        f"OLTP with off-chip L2 configurations — "
        f"{'uniprocessor' if ncpus == 1 else f'{ncpus} processors'}"
    )
    figure = build_figure(fig_id, title, sweep_configs(ncpus, settings.scale),
                          results, check=settings.check)
    _annotate(figure, ncpus)
    return figure


def run(ncpus: int, settings: Optional[Settings] = None) -> Figure:
    """Run the off-chip sweep for 1 (Figure 5) or 8 (Figure 6) CPUs."""
    settings = settings or Settings.paper()
    return build(ncpus, settings, run_simulations(jobs(ncpus, settings)))

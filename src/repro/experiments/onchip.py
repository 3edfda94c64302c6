"""Figures 7 and 8: impact of integrating the L2 cache on-chip.

The leftmost bar is the Base configuration with the 8 MB direct-mapped
off-chip L2; the remaining bars are on-chip SRAM L2s (1 MB 8-way, then
2 MB at 8/4/2/1 ways) and the larger-but-slower 8 MB 8-way embedded
DRAM option.  Figure 7 is the uniprocessor, Figure 8 the 8-processor
system; everything is normalized to Base.
"""

from __future__ import annotations

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
from repro.params import MB, L2Technology
from repro.runner import SimJob, run_simulations

#: (label, size, assoc) for the integrated SRAM options, paper order.
SRAM_POINTS = (
    ("1M8w", 1 * MB, 8),
    ("2M8w", 2 * MB, 8),
    ("2M4w", 2 * MB, 4),
    ("2M2w", 2 * MB, 2),
    ("2M1w", 2 * MB, 1),
)


def _configs(ncpus: int, scale: int):
    configs = [("8M1w Base", MachineConfig.base(ncpus, scale=scale))]
    for label, size, assoc in SRAM_POINTS:
        configs.append(
            (
                label,
                MachineConfig.integrated_l2(
                    ncpus, l2_size=size, l2_assoc=assoc, scale=scale
                ),
            )
        )
    configs.append(
        (
            "8M8w DRAM",
            MachineConfig.integrated_l2(
                ncpus,
                l2_size=8 * MB,
                l2_assoc=8,
                technology=L2Technology.ON_CHIP_DRAM,
                scale=scale,
            ),
        )
    )
    return configs


def _annotate(figure: Figure, ncpus: int) -> None:
    speedup = figure.speedup("2M8w")
    target = "~1.4x" if ncpus == 1 else "~1.2x"
    figure.notes.append(
        f"2M8w on-chip speedup over 8M1w off-chip = {speedup:.2f}x (paper: {target})"
    )
    m2m8w = figure.row("2M8w").result.misses.total
    m2m4w = figure.row("2M4w").result.misses.total
    mbase = figure.baseline.result.misses.total or 1
    figure.notes.append(
        f"misses vs 8M1w: 2M8w {m2m8w / mbase:.2f}, 2M4w {m2m4w / mbase:.2f} "
        "(paper: both < 1 — associativity beats capacity)"
    )
    dram = figure.speedup("8M8w DRAM", over="2M8w")
    figure.notes.append(
        f"8M8w DRAM vs 2M8w SRAM = {dram:.2f}x "
        + ("(paper: DRAM loses on a uniprocessor)" if ncpus == 1
           else "(paper: ~10% loss, but more robust capacity)")
    )


def jobs(ncpus: int, settings: Settings) -> List[SimJob]:
    """The on-chip study's jobs for 1 (Figure 7) or 8 (Figure 8) CPUs."""
    return config_jobs(_configs(ncpus, settings.scale),
                       trace_spec(ncpus, settings), settings.check)


def build(ncpus: int, settings: Settings,
          results: Sequence[RunResult]) -> Figure:
    """Figure 7 or 8 from the results of :func:`jobs`."""
    fig_id = "Figure 7" if ncpus == 1 else "Figure 8"
    title = (
        f"impact of on-chip L2 — "
        f"{'uniprocessor' if ncpus == 1 else f'{ncpus} processors'}"
    )
    figure = build_figure(fig_id, title, _configs(ncpus, settings.scale),
                          results, check=settings.check)
    _annotate(figure, ncpus)
    return figure


def run(ncpus: int, settings: Optional[Settings] = None) -> Figure:
    """Run the on-chip study for 1 (Figure 7) or 8 (Figure 8) CPUs."""
    settings = settings or Settings.paper()
    return build(ncpus, settings, run_simulations(jobs(ncpus, settings)))

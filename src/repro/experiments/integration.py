"""Figure 10: successive integration of L2, MC, and CC/NR.

Two graphs: uniprocessor (Base, L2, L2+MC) and 8 processors (Base, L2,
L2+MC, All).  The L2 configuration is the Base 8 MB direct-mapped
off-chip cache for the Base bar and the 2 MB 8-way on-chip cache for
every integrated bar, exactly as in the paper.
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
from repro.runner import SimJob, run_simulations


def ladder_configs(ncpus: int, scale: int, cpu_model: str = "inorder"):
    """The labelled integration-ladder configurations (also used by selftest)."""
    configs = [
        ("Base", MachineConfig.base(ncpus, scale=scale, cpu_model=cpu_model)),
        ("L2", MachineConfig.integrated_l2(ncpus, scale=scale, cpu_model=cpu_model)),
        ("L2+MC", MachineConfig.integrated_l2_mc(ncpus, scale=scale, cpu_model=cpu_model)),
    ]
    if ncpus > 1:
        configs.append(
            ("All", MachineConfig.fully_integrated(ncpus, scale=scale, cpu_model=cpu_model))
        )
    return configs


@dataclass
class IntegrationStudy:
    """Figure 10 plus the Section-5 headline speedups."""

    uni: Figure
    mp: Figure
    conservative_speedup: float  # full integration vs Conservative Base (MP)

    @property
    def uni_full_speedup(self) -> float:
        return self.uni.speedup("L2+MC")

    @property
    def mp_full_speedup(self) -> float:
        return self.mp.speedup("All")

    @property
    def mp_l2_step(self) -> float:
        return self.mp.speedup("L2")

    @property
    def mp_system_step(self) -> float:
        """Gain of MC + CC/NR integration on top of the on-chip L2."""
        return self.mp.speedup("All", over="L2")


def jobs(settings: Settings, cpu_model: str = "inorder") -> List[SimJob]:
    """Figure 10's jobs: the uniprocessor ladder, the MP ladder, then
    the MP Conservative Base."""
    scale = settings.scale
    mp = ladder_configs(8, scale, cpu_model) + [
        ("Cons", MachineConfig.conservative_base(8, scale=scale,
                                                 cpu_model=cpu_model)),
    ]
    return (config_jobs(ladder_configs(1, scale, cpu_model),
                        trace_spec(1, settings), settings.check)
            + config_jobs(mp, trace_spec(8, settings), settings.check))


def build(settings: Settings, results: Sequence[RunResult],
          cpu_model: str = "inorder") -> IntegrationStudy:
    """Figure 10 (or its Figure-13 OOO variant) from the results of
    :func:`jobs`."""
    scale = settings.scale
    uni_configs = ladder_configs(1, scale, cpu_model)
    uni = build_figure(
        "Figure 10 (uni)",
        f"integration ladder — uniprocessor ({cpu_model})",
        uni_configs, results[:len(uni_configs)],
        check=settings.check,
    )
    uni.notes.append(
        f"full-integration speedup = {uni.speedup('L2+MC'):.2f}x (paper: ~1.4x, "
        "nearly all from the L2 step)"
    )

    mp = build_figure(
        "Figure 10 (MP)",
        f"integration ladder — 8 processors ({cpu_model})",
        ladder_configs(8, scale, cpu_model), results[len(uni_configs):-1],
        check=settings.check,
    )
    cons = results[-1]
    full = mp.row("All").result
    cons_speedup = cons.exec_time / full.exec_time
    mp.notes.append(
        f"full-integration speedup = {mp.speedup('All'):.2f}x (paper: 1.43x); "
        f"L2 step {mp.speedup('L2'):.2f}x, system step "
        f"{mp.speedup('All', over='L2'):.2f}x (paper: ~1.2x each)"
    )
    mp.notes.append(
        f"vs Conservative Base = {cons_speedup:.2f}x (paper: 1.56x)"
    )
    return IntegrationStudy(uni=uni, mp=mp, conservative_speedup=cons_speedup)


def run(settings: Optional[Settings] = None, cpu_model: str = "inorder") -> IntegrationStudy:
    """Reproduce Figure 10 (or its Figure-13 OOO variant)."""
    settings = settings or Settings.paper()
    return build(settings, run_simulations(jobs(settings, cpu_model)),
                 cpu_model)

"""Figure 13: effect of out-of-order processors on integration gains.

Reruns the Figure-10 ladder with the 4-wide out-of-order timing model,
prepending the in-order Base bar for the absolute comparison.  The two
paper claims: OOO buys ~1.4x (uni) / ~1.3x (MP) in absolute terms, and
the *relative* gains from integration are virtually identical to the
in-order ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.machine import MachineConfig
from repro.core.results import RunResult
from repro.experiments import integration
from repro.experiments.common import (
    Figure,
    Settings,
    build_figure,
    config_jobs,
    trace_spec,
)
from repro.experiments.integration import IntegrationStudy
from repro.runner import SimJob, run_simulations


def _ladder(ncpus: int, scale: int):
    configs = [
        ("Base OOO", MachineConfig.base(ncpus, scale=scale, cpu_model="ooo")),
        ("L2 OOO", MachineConfig.integrated_l2(ncpus, scale=scale, cpu_model="ooo")),
        ("L2+MC OOO", MachineConfig.integrated_l2_mc(ncpus, scale=scale, cpu_model="ooo")),
    ]
    if ncpus > 1:
        configs.append(
            ("All OOO", MachineConfig.fully_integrated(ncpus, scale=scale, cpu_model="ooo"))
        )
    return configs


@dataclass
class OooStudy:
    """Figure 13 plus the step-ratio comparison against in-order."""

    uni: Figure
    mp: Figure
    inorder: IntegrationStudy
    uni_ooo_gain: float  # in-order Base time / OOO Base time
    mp_ooo_gain: float

    def step_ratios(self) -> Dict[str, Dict[str, float]]:
        """Integration speedups, in-order vs OOO, per machine size.

        The paper's claim is that corresponding entries match.
        """
        return {
            "uni": {
                "L2 in-order": self.inorder.uni.speedup("L2"),
                "L2 ooo": self.uni.speedup("L2 OOO"),
                "L2+MC in-order": self.inorder.uni.speedup("L2+MC"),
                "L2+MC ooo": self.uni.speedup("L2+MC OOO"),
            },
            "mp": {
                "L2 in-order": self.inorder.mp.speedup("L2"),
                "L2 ooo": self.mp.speedup("L2 OOO"),
                "All in-order": self.inorder.mp.speedup("All"),
                "All ooo": self.mp.speedup("All OOO"),
            },
        }

    def render(self) -> str:
        from repro.experiments.report import time_table

        lines = [time_table(self.uni), "", time_table(self.mp), ""]
        lines.append(
            f"OOO absolute gain at Base: uni {self.uni_ooo_gain:.2f}x "
            f"(paper ~1.4x), MP {self.mp_ooo_gain:.2f}x (paper ~1.3x)"
        )
        for machine, ratios in self.step_ratios().items():
            pairs = ", ".join(f"{k}={v:.2f}x" for k, v in ratios.items())
            lines.append(f"integration steps ({machine}): {pairs}")
        lines.append(
            "paper: relative integration gains are virtually identical "
            "for in-order and out-of-order processors"
        )
        return "\n".join(lines)


def jobs(settings: Settings) -> List[SimJob]:
    """Figure 13's jobs: Figure 10's, then the uniprocessor and MP
    OOO ladders."""
    scale = settings.scale
    return (integration.jobs(settings)
            + config_jobs(_ladder(1, scale), trace_spec(1, settings),
                          settings.check)
            + config_jobs(_ladder(8, scale), trace_spec(8, settings),
                          settings.check))


def build(settings: Settings, results: Sequence[RunResult]) -> OooStudy:
    """Figure 13 from the results of :func:`jobs`."""
    uni_configs = _ladder(1, settings.scale)
    mp_configs = _ladder(8, settings.scale)
    ooo = len(uni_configs) + len(mp_configs)
    inorder = integration.build(settings, results[:-ooo])

    uni = build_figure(
        "Figure 13 (uni)", "integration with OOO — uniprocessor",
        uni_configs, results[-ooo:-len(mp_configs)], check=settings.check,
    )
    mp = build_figure(
        "Figure 13 (MP)", "integration with OOO — 8 processors",
        mp_configs, results[-len(mp_configs):], check=settings.check,
    )
    uni_gain = (
        inorder.uni.row("Base").result.exec_time / uni.row("Base OOO").result.exec_time
    )
    mp_gain = (
        inorder.mp.row("Base").result.exec_time / mp.row("Base OOO").result.exec_time
    )
    # Present the in-order Base as an extra normalized row, as the
    # paper's leftmost bar does.
    uni.notes.append(f"Base in-order would plot at {100 * uni_gain:.1f}")
    mp.notes.append(f"Base in-order would plot at {100 * mp_gain:.1f}")
    return OooStudy(uni=uni, mp=mp, inorder=inorder,
                    uni_ooo_gain=uni_gain, mp_ooo_gain=mp_gain)


def run(settings: Optional[Settings] = None) -> OooStudy:
    """Reproduce Figure 13."""
    settings = settings or Settings.paper()
    return build(settings, run_simulations(jobs(settings)))

"""The ``repro-oltp scenario`` verb: run any registered scenario.

``scenario list`` and ``scenario describe <name>`` are pure registry
queries.  ``scenario run <name>`` simulates the scenario's integration
ladder against its workload trace, declared as jobs and built into a
figure the way every figure driver is, so a scenario run fans out,
caches and resumes under ``repro-oltp campaign <name>`` exactly like a
figure does.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.results import RunResult
from repro.experiments.common import Figure, Settings, build_figure
from repro.runner import SimJob
from repro.scenario import all_scenarios, describe_scenario, get_scenario


def scenario_jobs(name: str, settings: Settings) -> List[SimJob]:
    """``name``'s ladder as jobs, sized by ``settings``."""
    scenario = get_scenario(name)
    txns = (settings.uni_txns if scenario.ncpus == 1
            else settings.mp_txns)
    return scenario.jobs(scale=settings.scale, txns=txns,
                         seed=settings.seed, check=settings.check)


def build_scenario(name: str, settings: Settings,
                   results: Sequence[RunResult]) -> Figure:
    """``name``'s figure from the results of :func:`scenario_jobs`;
    baseline is the Base off-chip rung."""
    scenario = get_scenario(name)
    figure = build_figure(
        f"scenario:{name}",
        f"Scenario {name}: {scenario.description}",
        scenario.machines(settings.scale),
        results,
        check=settings.check,
    )
    figure.notes.append(f"workload: {scenario.workload.summary()}")
    figure.notes.append(f"topology: {scenario.topology.summary()}")
    return figure

def render_list() -> str:
    """The ``scenario list`` table."""
    scenarios = all_scenarios()
    width = max(len(s.name) for s in scenarios)
    lines = [f"registered scenarios ({len(scenarios)})"]
    for s in scenarios:
        lines.append(f"  {s.name:<{width}}  {s.summary()}")
        lines.append(f"  {'':<{width}}  {s.description}")
    return "\n".join(lines)


def render_describe(name: str) -> str:
    """The ``scenario describe <name>`` report."""
    return describe_scenario(name)

"""Job corpora for the load generator and the service benchmarks.

Two sources of :class:`~repro.runner.jobs.SimJob` specs:

* :func:`figure_jobs` — the real reproduction workload: the Figure
  5/6 off-chip sweeps and the Figure 10 integration ladders, against
  the same :class:`~repro.runner.tracestore.TraceSpec` the drivers
  would use.  Submitting these against a populated campaign cache is
  the *warm* half of a load-generator mix.  Fig5 and fig6 are exactly
  the campaign's jobs; fig10 lacks its 8-CPU Conservative Base job
  (ROADMAP item 2).

* :func:`perturbed_jobs` — an unbounded stream of distinct-by-hash
  jobs for the *cold* half.  Each perturbation varies the off-chip L2
  geometry over the paper's valid design points (256 KB-multiple
  capacities, power-of-two associativities) and tags the config label
  with its index, so every job has a unique content hash while all of
  them replay the **same single trace** — generating load never costs
  a second trace build.  The grid has 32 cache geometries, so a
  service replays at most 32 of them per trace; every other cold job
  is retimed from the memoized profile of its geometry.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.machine import MachineConfig, cache_label
from repro.experiments.common import Settings, trace_spec
from repro.integrity.errors import ConfigError
from repro.params import MB
from repro.runner.jobs import SimJob

#: Figures the corpus can enumerate (driver-config sweeps).
CORPUS_FIGURES = ("fig5", "fig6", "fig10")

#: L2 capacities the cold perturbations cycle through — modest sizes
#: so cold-job simulation cost stays uniform (multiples of 256 KB,
#: all valid under the machine model's capacity rule).
_PERTURB_SIZES = tuple((MB // 4) * k for k in (1, 2, 3, 4, 5, 6, 8, 12))
_PERTURB_ASSOCS = (1, 2, 4, 8)


def _figure_configs(figure: str, settings: Settings):
    """(ncpus, labelled configs) for one figure id."""
    from repro.experiments.integration import ladder_configs
    from repro.experiments.offchip import sweep_configs

    if figure == "fig5":
        return [(1, sweep_configs(1, settings.scale))]
    if figure == "fig6":
        return [(8, sweep_configs(8, settings.scale))]
    if figure == "fig10":
        return [
            (1, ladder_configs(1, settings.scale)),
            (8, ladder_configs(8, settings.scale)),
        ]
    raise ConfigError(
        f"unknown corpus figure {figure!r}; "
        f"pick from {', '.join(CORPUS_FIGURES)}"
    )


def figure_jobs(figures: Sequence[str] = ("fig5",),
                settings: Optional[Settings] = None) -> List[SimJob]:
    """The figure-driver jobs for the given figure ids, quick-sized.

    For fig5 and fig6 these are the jobs ``repro-oltp campaign`` runs
    for the same figures — same specs, same hashes — so a load
    generator pointed at a campaign cache directory gets genuine warm
    hits.  Fig10 is one job short: its ladders leave out the 8-CPU
    Conservative Base machine (``Cons 8M4w`` at quick settings), which
    the campaign's fig10 also runs.  Reading the figures' declared job
    lists instead would change the warm job set the service benchmark
    submits (ROADMAP item 2).
    """
    settings = settings or Settings.quick()
    jobs: List[SimJob] = []
    seen = set()
    for figure in figures:
        for ncpus, configs in _figure_configs(figure, settings):
            spec = trace_spec(ncpus, settings)
            for _, machine in configs:
                job = SimJob(spec=spec, machine=machine,
                             check=settings.check)
                job_hash = job.content_hash()
                if job_hash not in seen:  # fig10 ladders overlap fig5/6
                    seen.add(job_hash)
                    jobs.append(job)
    return jobs


def perturbed_jobs(count: int, settings: Optional[Settings] = None,
                   start: int = 0) -> List[SimJob]:
    """``count`` distinct-by-hash cold jobs sharing one trace.

    Perturbation ``i`` pairs an L2 capacity and associativity from the
    valid 8 x 4 design grid and stamps ``i`` into the config label,
    which participates in the content hash — so the stream of distinct
    jobs is unbounded while every job runs on the same uniprocessor
    trace.  Jobs ``i`` and ``i + 32`` share a cache geometry, so at
    most 32 of them replay per trace and the rest are retimes.
    ``start`` offsets the index, letting successive load-generator runs
    draw non-overlapping cold corpora.
    """
    settings = settings or Settings.quick()
    spec = trace_spec(1, settings)
    jobs = []
    for i in range(start, start + count):
        size = _PERTURB_SIZES[i % len(_PERTURB_SIZES)]
        assoc = _PERTURB_ASSOCS[(i // len(_PERTURB_SIZES))
                                % len(_PERTURB_ASSOCS)]
        machine = MachineConfig.base(
            1, l2_size=size, l2_assoc=assoc, scale=settings.scale,
        ).with_(label=f"perturb-{i} {cache_label(size, assoc)}")
        jobs.append(SimJob(spec=spec, machine=machine,
                           check=settings.check))
    return jobs

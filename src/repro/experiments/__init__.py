"""Experiment drivers: one module per paper figure.

Each figure declares its jobs from the settings alone and builds its
report from their results (``run`` does both inline);
``FIGURE_TABLE`` in :mod:`repro.experiments.cli` maps names to them.

=============  ==========================================  ====================
paper artifact what it shows                               jobs / build
=============  ==========================================  ====================
Figure 3       latency table per integration level         fig3_latencies
Figure 5       off-chip L2 sweep, uniprocessor             offchip, ncpus=1
Figure 6       off-chip L2 sweep, 8 processors             offchip, ncpus=8
Figure 7       on-chip L2, uniprocessor                    onchip, ncpus=1
Figure 8       on-chip L2, 8 processors                    onchip, ncpus=8
Figure 10      successive integration ladder               integration
Figure 11      RAC miss-mix study                          rac.miss_jobs
Figure 12      RAC vs bigger L2 performance                rac.perf_jobs
Figure 13      out-of-order processors                     ooo
=============  ==========================================  ====================
"""

from repro.experiments.common import (
    Figure,
    Row,
    Settings,
    clear_trace_cache,
    get_trace,
)
from repro.experiments.export import figure_rows, figure_to_csv, write_figure_csv

__all__ = [
    "Figure",
    "Row",
    "Settings",
    "clear_trace_cache",
    "get_trace",
    "figure_rows",
    "figure_to_csv",
    "write_figure_csv",
]

"""Campaign benchmark: serial vs parallel workers, cold vs warm cache.

Runs the full figure set through ``run_campaign`` four ways — serial
cold, serial warm, 4-worker cold, 4-worker warm — at quick sizes, and
dumps a machine-readable ``BENCH_campaign.json`` (override the path
with ``BENCH_CAMPAIGN_OUT``).  The payload carries each mode's
telemetry, including per-job records, plus the headline speedup
ratios.

Note the parallel speedup is only meaningful on a multi-core host; on
a single-core CI runner the interesting numbers are the warm-cache
ones (a warm campaign should be orders of magnitude faster).
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments.campaign import run_campaign
from repro.experiments.cli import FIGURES
from repro.experiments.common import Settings, clear_trace_cache

OUT = os.environ.get("BENCH_CAMPAIGN_OUT", "BENCH_campaign.json")


def _campaign(cache_dir: str, jobs: int):
    start = time.perf_counter()
    report = run_campaign(FIGURES, Settings.quick(), jobs=jobs,
                          cache_dir=cache_dir, progress=False)
    wall = time.perf_counter() - start
    telemetry = report.telemetry.to_dict()
    telemetry["wall_seconds"] = round(wall, 3)
    return report, telemetry


def test_bench_campaign_matrix(benchmark, tmp_path_factory):
    serial_dir = str(tmp_path_factory.mktemp("bench-serial"))
    parallel_dir = str(tmp_path_factory.mktemp("bench-parallel"))

    serial_report, serial = benchmark.pedantic(
        lambda: _campaign(serial_dir, 1), rounds=1, iterations=1
    )
    _, serial_warm = _campaign(serial_dir, 1)
    clear_trace_cache()
    parallel_report, parallel = _campaign(parallel_dir, 4)
    _, parallel_warm = _campaign(parallel_dir, 4)

    # The benchmark doubles as a correctness check, like the figure
    # benches: parallel output matches serial, warm runs simulate nothing.
    assert parallel_report.figures == serial_report.figures
    assert serial_warm["simulated"] == 0
    assert parallel_warm["simulated"] == 0

    wall = lambda t: max(t["wall_seconds"], 1e-9)  # noqa: E731
    payload = {
        "settings": "quick",
        "figures": list(FIGURES),
        "cpu_count": os.cpu_count(),
        "serial_cold": serial,
        "serial_warm": serial_warm,
        "parallel4_cold": parallel,
        "parallel4_warm": parallel_warm,
        "parallel_speedup_cold": round(wall(serial) / wall(parallel), 3),
        "warm_speedup_serial": round(wall(serial) / wall(serial_warm), 3),
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

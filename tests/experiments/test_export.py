"""Tests for CSV export of figures."""

import csv
import io

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.experiments.common import build_figure
from repro.experiments.export import (
    COLUMNS,
    figure_rows,
    figure_to_csv,
    write_figure_csv,
)
from repro.trace.synthetic import make_trace, sweep_refs


def _figure():
    refs = sweep_refs(0, 40, write=False) + sweep_refs(0, 40)
    trace = make_trace(1, [(0, refs)], page_bytes=256, measured_txns=4)
    configs = [
        ("small", MachineConfig.base(1, l2_size=1024, l2_assoc=1, scale=1)),
        ("big", MachineConfig.base(1, l2_size=8192, l2_assoc=2, scale=1)),
    ]
    return build_figure("T", "export test", configs,
                        [simulate(m, trace) for _, m in configs])


def test_rows_have_all_columns():
    rows = figure_rows(_figure())
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(COLUMNS)


def test_baseline_row_normalized_to_100():
    rows = figure_rows(_figure())
    assert rows[0]["time_norm"] == 100.0
    assert rows[0]["miss_norm"] == 100.0


def test_csv_parses_back():
    text = figure_to_csv(_figure())
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert [r["configuration"] for r in parsed] == ["small", "big"]
    assert float(parsed[0]["time_norm"]) == 100.0


def test_write_creates_parent_dirs(tmp_path):
    out = write_figure_csv(_figure(), tmp_path / "sub" / "fig.csv")
    assert out.exists()
    assert "configuration" in out.read_text().splitlines()[0]


def test_breakdown_components_sum_to_total():
    for row in figure_rows(_figure()):
        total = row["cpu"] + row["l2_hit"] + row["local_stall"] + row["remote_stall"]
        assert abs(total - row["time_norm"]) < 0.02

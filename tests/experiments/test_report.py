"""Tests for text rendering of figures."""

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.experiments.common import build_figure
from repro.experiments.report import bar_chart, miss_table, render, summary_line, time_table
from repro.trace.synthetic import make_trace, sweep_refs


def figure(notes=()):
    refs = sweep_refs(0, 30) + sweep_refs(0, 30, write=True)
    trace = make_trace(1, [(0, refs)], page_bytes=256)
    configs = [
        ("tiny", MachineConfig.base(1, l2_size=512, l2_assoc=1, scale=1)),
        ("large", MachineConfig.base(1, l2_size=8192, l2_assoc=4, scale=1)),
    ]
    fig = build_figure("Figure T", "render test", configs,
                       [simulate(m, trace) for _, m in configs])
    fig.notes.extend(notes)
    return fig


def test_time_table_has_header_and_rows():
    text = time_table(figure())
    lines = text.splitlines()
    assert "Figure T" in lines[0]
    assert "LocStall" in lines[1]
    assert len(lines) == 4  # title + header + 2 rows


def test_miss_table_categories():
    text = miss_table(figure())
    assert "D-RemD" in text
    assert "100.0" in text


def test_bar_chart_scales_to_width():
    text = bar_chart(figure(), width=30)
    for line in text.splitlines()[1:-1]:
        bar = line.split("|", 1)[1].split()[0]
        assert len(bar) <= 33  # width plus rounding slack


def test_bar_chart_legend():
    assert "legend" in bar_chart(figure())


def test_render_includes_notes_without_blank_lines():
    text = render(figure(notes=["alpha", "beta"]))
    notes_block = text.split("notes:")[1]
    assert "- alpha\n  - beta" in notes_block


def test_render_without_misses():
    text = render(figure(), misses=False)
    assert "normalized L2 misses" not in text


def test_render_with_chart():
    assert "legend" in render(figure(), chart=True)


def test_summary_line():
    fig = figure()
    line = summary_line(fig.rows[1])
    assert "large" in line and "time" in line

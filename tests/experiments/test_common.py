"""Tests for experiment plumbing: settings, trace cache, normalization."""

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.experiments.common import (
    Settings,
    build_figure,
    clear_trace_cache,
    get_trace,
)
from repro.trace.synthetic import make_trace, sweep_refs

TINY = Settings(scale=256, uni_txns=12, mp_txns=24, seed=3)


class TestSettings:
    def test_paper_defaults(self):
        s = Settings.paper()
        assert s.scale == 32

    def test_quick_is_smaller(self):
        q, p = Settings.quick(), Settings.paper()
        assert q.scale > p.scale
        assert q.uni_txns < p.uni_txns


class TestTraceCache:
    def test_same_settings_reuse_trace(self):
        clear_trace_cache()
        a = get_trace(1, TINY)
        b = get_trace(1, TINY)
        assert a is b

    def test_different_cpu_counts_distinct(self):
        clear_trace_cache()
        a = get_trace(1, TINY)
        b = get_trace(2, TINY)
        assert a is not b
        assert b.ncpus == 2
        clear_trace_cache()


class TestBuildFigure:
    def _figure(self):
        refs = sweep_refs(0, 40) + sweep_refs(0, 40)
        trace = make_trace(1, [(0, refs)], page_bytes=256)
        configs = [
            ("small", MachineConfig.base(1, l2_size=1024, l2_assoc=1, scale=1)),
            ("big", MachineConfig.base(1, l2_size=8192, l2_assoc=2, scale=1)),
        ]
        return build_figure("T", "test figure", configs,
                            [simulate(m, trace) for _, m in configs])

    def test_baseline_normalizes_to_100(self):
        fig = self._figure()
        assert fig.baseline.time_norm == 100.0
        assert fig.baseline.miss_norm == 100.0

    def test_row_lookup(self):
        fig = self._figure()
        assert fig.row("big").label == "big"
        import pytest
        with pytest.raises(KeyError):
            fig.row("nope")

    def test_speedup(self):
        fig = self._figure()
        assert fig.speedup("big") >= 1.0
        assert fig.speedup("big", over="small") == fig.speedup("big")

    def test_breakdown_norm_sums_to_time_norm(self):
        fig = self._figure()
        for row in fig.rows:
            parts = row.breakdown_norm
            assert abs(sum(parts.values()) - row.time_norm) < 1e-6

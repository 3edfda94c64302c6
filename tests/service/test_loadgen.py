"""Load generator: schedule math, percentiles, and a live small run."""

from __future__ import annotations

import pytest

from repro.integrity.errors import ConfigError
from repro.params import MB
from repro.service import loadgen

from _helpers import tiny_job


class TestParseMix:
    def test_parses_ratio(self):
        assert loadgen.parse_mix("80:20") == (80, 20)
        assert loadgen.parse_mix("1:0") == (1, 0)

    @pytest.mark.parametrize("bad", ["", "80", "a:b", "-1:2", "0:0"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            loadgen.parse_mix(bad)


class TestPercentiles:
    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert loadgen.percentile(samples, 50) == 50.0
        assert loadgen.percentile(samples, 99) == 99.0
        assert loadgen.percentile(samples, 100) == 100.0

    def test_empty_and_single(self):
        assert loadgen.percentile([], 99) == 0.0
        assert loadgen.percentile([7.0], 50) == 7.0

    def test_summary_shape(self):
        summary = loadgen.summarize([0.1, 0.2, 0.3])
        assert summary["count"] == 3
        assert summary["p50"] == 0.2
        assert summary["max"] == 0.3
        assert loadgen.summarize([]) == {"count": 0}


class TestSchedule:
    def test_mix_ratio_holds_for_short_runs(self):
        warm = [tiny_job(0)]
        cold = [tiny_job(100 + i) for i in range(10)]
        schedule = loadgen.build_schedule(warm, cold, 10, (80, 20))
        kinds = [kind for kind, _ in schedule]
        assert kinds.count("cold") == 2
        assert kinds.count("warm") == 8

    def test_cold_exhaustion_falls_back_to_warm(self):
        schedule = loadgen.build_schedule(
            [tiny_job(0)], [tiny_job(100)], 10, (1, 1))
        kinds = [kind for kind, _ in schedule]
        assert kinds.count("cold") == 1
        assert kinds.count("warm") == 9

    def test_all_cold_mix(self):
        cold = [tiny_job(100 + i) for i in range(4)]
        schedule = loadgen.build_schedule([], cold, 4, (0, 1))
        assert [k for k, _ in schedule] == ["cold"] * 4

    def test_deterministic(self):
        warm = [tiny_job(i) for i in range(2)]
        cold = [tiny_job(100 + i) for i in range(5)]
        a = loadgen.build_schedule(warm, cold, 20, (3, 1))
        b = loadgen.build_schedule(warm, cold, 20, (3, 1))
        assert a == b


class TestLiveRun:
    def test_small_session_reports_clean(self, live_server):
        _, base = live_server
        warm = [tiny_job(i) for i in range(2)]
        # Distinct cache geometries, none the warm jobs': every cold
        # job replays instead of retiming a memoized profile.
        cold = [tiny_job(200 + i, l2_size=(i + 1) * MB) for i in range(3)]
        report = loadgen.generate(
            base, warm, cold, requests=12, concurrency=4,
            mix=(3, 1), poll_timeout=120,
        )
        assert report["ok"], report
        assert report["requests"] == 12
        assert report["transport_errors"] == 0
        done = report["phases"]["submit_done"]
        assert done["warm"]["count"] == 9
        assert done["cold"]["count"] == 3
        # Warm submissions answer from the in-memory entry table; cold
        # ones replay.  Warm latency must sit well under cold.
        assert done["warm"]["p50"] < done["cold"]["p50"]
        text = loadgen.render(report)
        assert "verdict: OK" in text
        assert "submit_accept" in text

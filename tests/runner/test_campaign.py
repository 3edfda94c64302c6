"""End-to-end campaign behaviour: determinism, cache resilience, CLI.

The headline guarantee under test: a figure produced through the
campaign runner — parallel workers, cold cache, or warm cache — is
*identical* to the one the plain serial driver path produces.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.common import Settings

FIGS = ("fig5", "fig10")


def campaign(cache_dir, jobs, **kw):
    return run_campaign(
        FIGS, Settings.quick(), jobs=jobs,
        cache_dir=str(cache_dir) if cache_dir else None,
        progress=False, **kw,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Serial-cold, warm, and 4-worker-cold campaigns over fig5+fig10."""
    cache1 = tmp_path_factory.mktemp("campaign-serial")
    cache2 = tmp_path_factory.mktemp("campaign-parallel")
    serial = campaign(cache1, 1)
    warm = campaign(cache1, 1)
    parallel = campaign(cache2, 4)
    return cache1, serial, warm, parallel


class TestDeterminism:
    def test_parallel_matches_serial_exactly(self, runs):
        _, serial, _, parallel = runs
        assert parallel.figures == serial.figures

    def test_cache_warm_matches_serial_exactly(self, runs):
        _, serial, warm, _ = runs
        assert warm.figures == serial.figures

    def test_warm_run_simulates_nothing(self, runs):
        _, _, warm, _ = runs
        assert warm.telemetry.simulated == 0
        assert warm.telemetry.hit_rate == 1.0
        assert warm.telemetry.total_jobs > 0

    def test_cold_run_simulated_every_distinct_point(self, runs):
        _, serial, _, _ = runs
        # fig10's uniprocessor ladder overlaps fig5's machine set, so a
        # few points are intra-run cache hits; points sharing a cache
        # geometry with an earlier replay are retimed from its memory
        # profile; everything else simulates.
        assert serial.telemetry.simulated > 0
        assert serial.telemetry.retimed > 0
        assert (
            serial.telemetry.simulated + serial.telemetry.retimed
            + serial.telemetry.cache_hits
            == serial.telemetry.total_jobs
        )


class TestCacheResilience:
    def test_corrupt_and_stale_entries_resimulate_silently(self, runs):
        cache1, serial, _, _ = runs
        results_dir = cache1 / "results"
        entries = sorted(results_dir.glob("*.json"))
        assert len(entries) >= 2
        # One entry becomes garbage bytes, one a stale format version.
        entries[0].write_bytes(b"\x00corrupt\xff")
        stale = json.loads(entries[1].read_text())
        stale["format"] = 999
        entries[1].write_text(json.dumps(stale))

        healed = campaign(cache1, 1)  # must not raise
        assert healed.figures == serial.figures
        assert healed.telemetry.simulated >= 2
        assert healed.cache_stats.rejected >= 2

        # The bad entries were overwritten: a further run is all hits.
        again = campaign(cache1, 1)
        assert again.telemetry.simulated == 0


class TestCampaignModes:
    def test_memory_only_campaign(self):
        # cache_dir=None: no result cache, no trace spill, still correct.
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        report = run_campaign(("fig5",), tiny, jobs=1, cache_dir=None,
                              progress=False)
        assert report.telemetry.cache_hits == 0
        # Cons 8M4w shares Base 8M4w's cache geometry: one replay.
        assert report.telemetry.retimed == 1
        assert (report.telemetry.simulated + report.telemetry.retimed
                == report.telemetry.total_jobs)
        assert "Figure 5" in report.figures[0][1]

    def test_no_cache_flag_still_simulates(self, tmp_path):
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        report = run_campaign(("fig5",), tiny, jobs=1,
                              cache_dir=str(tmp_path), use_cache=False,
                              progress=False)
        assert report.telemetry.retimed == 1
        assert (report.telemetry.simulated + report.telemetry.retimed
                == report.telemetry.total_jobs)
        assert not (tmp_path / "results").exists()

    def test_telemetry_summary_line_is_greppable(self, runs):
        _, _, warm, _ = runs
        line = warm.telemetry.summary_line()
        assert "simulated=0" in line
        assert "hit_rate=100" in line


class TestCampaignCli:
    def test_cli_verb_twice_second_run_all_hits(self, tmp_path, capsys):
        from repro.experiments.cli import main

        argv = [
            "campaign", "--scale", "256", "--uni-txns", "15",
            "--mp-txns", "30", "--seed", "3", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"), "--no-progress",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "campaign summary:" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "simulated=0" in second
        assert "hit_rate=100" in second
        # Figure output itself is identical between the two runs.
        strip = lambda text: [  # noqa: E731 — drop timing-dependent lines
            ln for ln in text.splitlines()
            if not ln.startswith("campaign") and " wall=" not in ln
            and "ETA" not in ln and not ln.startswith("  fig")
        ]
        assert strip(first) == strip(second)

"""Campaign telemetry: golden renders, serialization, progress/ETA."""

from __future__ import annotations

import io
import json
import os
import re

import pytest

from repro.runner.telemetry import (
    NO_ANSI_ENV,
    SOURCE_CACHE,
    SOURCE_JOURNAL,
    SOURCE_SIMULATED,
    CampaignTelemetry,
    NullProgress,
    ProgressPrinter,
    ansi_enabled,
)


def sample_telemetry() -> CampaignTelemetry:
    t = CampaignTelemetry(workers=4)
    t.started_at = 100.0
    t.record("1M4w", "fig5", "aaa", 2.0, SOURCE_SIMULATED, "vectorized")
    t.record("2M4w", "fig5", "bbb", 0.0, SOURCE_CACHE, "vectorized")
    t.record("8M8w", "fig5", "ccc", 4.0, SOURCE_SIMULATED, "fast")
    t.record("All 2M8w", "fig8", "ddd", 0.0, SOURCE_CACHE, "vectorized-mp")
    t.end_batch("fig5", 6.5)
    t.end_batch("fig8", 0.1)
    return t


@pytest.fixture
def frozen_wall(monkeypatch):
    """Pin the telemetry module's clock so wall time is exactly 1.3 s."""
    import repro.runner.telemetry as mod

    monkeypatch.setattr(mod.time, "perf_counter", lambda: 101.3)


class TestAggregates:
    def test_counts_and_rates(self):
        t = sample_telemetry()
        assert t.total_jobs == 4
        assert t.simulated == 2
        assert t.cache_hits == 2
        assert t.hit_rate == 0.5
        assert t.simulated_seconds == 6.0
        assert t.mean_sim_seconds() == 3.0

    def test_empty_telemetry(self):
        t = CampaignTelemetry()
        assert t.hit_rate == 0.0
        assert t.mean_sim_seconds() == 0.0


class TestGoldenRender:
    def test_summary_line(self, frozen_wall):
        assert sample_telemetry().summary_line() == (
            "campaign summary: jobs=4 simulated=2 cache_hits=2 "
            "hit_rate=50% workers=4 wall=1.3s"
        )

    def test_render_table(self, frozen_wall):
        assert sample_telemetry().render() == (
            "campaign telemetry\n"
            "  batch         jobs   sim served     wall        engine\n"
            "  fig5             3     2      1     6.5s    vectorized\n"
            "  fig8             1     0      1     0.1s vectorized-mp\n"
            "campaign summary: jobs=4 simulated=2 cache_hits=2 "
            "hit_rate=50% workers=4 wall=1.3s"
        )

    def test_summary_stays_quiet_without_events(self, frozen_wall):
        # A clean campaign shows no journal or resilience fields at all.
        line = sample_telemetry().summary_line()
        assert "journal" not in line
        assert "retries" not in line

    def test_summary_shows_journal_and_resilience_events(self, frozen_wall):
        t = sample_telemetry()
        t.record("1M8w", "fig8", "eee", 0.0, SOURCE_JOURNAL, "fast")
        t.resilience.retries = 2
        t.resilience.timeouts = 1
        t.resilience.respawns = 1
        assert t.journal_hits == 1
        assert t.summary_line().endswith(
            "journal_hits=1 retries=2 timeouts=1 respawns=1 failures=0"
        )

    def test_dominant_engine_ties_break_alphabetically(self, frozen_wall):
        t = CampaignTelemetry()
        t.record("a", "figX", "h1", 1.0, SOURCE_SIMULATED, "vectorized")
        t.record("b", "figX", "h2", 1.0, SOURCE_SIMULATED, "fast")
        t.end_batch("figX", 2.0)
        row = t.render().splitlines()[2]
        assert row.endswith(" fast")

    def test_batch_without_records_renders_dash(self, frozen_wall):
        t = CampaignTelemetry()
        t.end_batch("empty", 0.0)
        row = t.render().splitlines()[2]
        assert row.split() == ["empty", "0", "0", "0", "0.0s", "-"]


class TestToDict:
    def test_json_round_trip(self, frozen_wall):
        data = json.loads(json.dumps(sample_telemetry().to_dict()))
        assert data["workers"] == 4
        assert data["jobs"] == 4
        assert data["simulated"] == 2
        assert data["cache_hits"] == 2
        assert data["hit_rate"] == 0.5
        assert data["simulated_seconds"] == 6.0
        assert data["wall_seconds"] == 1.3
        assert data["batches"] == [
            {"name": "fig5", "seconds": 6.5},
            {"name": "fig8", "seconds": 0.1},
        ]
        assert len(data["records"]) == 4
        assert data["records"][0] == {
            "label": "1M4w", "batch": "fig5", "job_hash": "aaa",
            "seconds": 2.0, "source": "simulated", "engine": "vectorized",
        }


class TestProgressPrinter:
    def printer(self):
        telemetry = CampaignTelemetry(workers=2)
        stream = io.StringIO()
        return ProgressPrinter(telemetry, stream), telemetry, stream

    def test_job_lines_and_eta(self):
        printer, telemetry, stream = self.printer()
        printer.start_batch(3, expected_sim=3)
        printer.job_done(
            telemetry.record("a", "fig5", "h1", 4.0, SOURCE_SIMULATED))
        lines = stream.getvalue().splitlines()
        # 2 jobs left, both expected to simulate, mean 4 s over 2
        # workers -> 4.0 s.
        assert lines[0] == "  [fig5 1/3] a: 4.00s (simulated) | eta 4.0s"

    def test_last_job_has_no_eta(self):
        printer, telemetry, stream = self.printer()
        printer.start_batch(1, expected_sim=1)
        printer.job_done(
            telemetry.record("a", "fig5", "h1", 4.0, SOURCE_SIMULATED))
        assert stream.getvalue() == "  [fig5 1/1] a: 4.00s (simulated)\n"

    def test_warm_cache_batch_shows_no_phantom_eta(self):
        # The regression this fixes: remaining *jobs* used to drive the
        # ETA, so a warm-cache batch with one slow historical mean
        # printed hours of phantom work.  With expected_sim=0 every
        # line is suffix-free.
        printer, telemetry, stream = self.printer()
        telemetry.record("old", "fig4", "h0", 60.0, SOURCE_SIMULATED)
        printer.start_batch(3, expected_sim=0)
        for label in ("a", "b", "c"):
            printer.job_done(
                telemetry.record(label, "fig5", label, 0.0, SOURCE_CACHE))
        out = stream.getvalue()
        assert "eta" not in out
        assert out.splitlines()[-1] == "  [fig5 3/3] c: 0.00s (cache)"

    def test_mixed_batch_eta_counts_only_remaining_sims(self):
        printer, telemetry, stream = self.printer()
        printer.start_batch(4, expected_sim=2)
        printer.job_done(
            telemetry.record("a", "fig5", "h1", 6.0, SOURCE_SIMULATED))
        lines = stream.getvalue().splitlines()
        # 3 jobs remain but only 1 simulation: 1 * 6 s / 2 workers.
        assert lines[0].endswith("| eta 3.0s")
        printer.job_done(
            telemetry.record("b", "fig5", "h2", 6.0, SOURCE_SIMULATED))
        assert stream.getvalue().splitlines()[1].endswith("(simulated)")

    def test_extra_sims_never_push_eta_negative(self):
        # More simulations than promised (e.g. a corrupt cache entry
        # re-simulating): remaining_sim clamps at zero.
        printer, telemetry, stream = self.printer()
        printer.start_batch(3, expected_sim=1)
        for label in ("a", "b"):
            printer.job_done(
                telemetry.record(label, "fig5", label, 2.0,
                                 SOURCE_SIMULATED))
        assert "eta" not in stream.getvalue().splitlines()[1]

    def test_expected_sim_defaults_to_total(self):
        printer, telemetry, stream = self.printer()
        printer.start_batch(2)
        printer.job_done(
            telemetry.record("a", "fig5", "h1", 2.0, SOURCE_SIMULATED))
        assert stream.getvalue().splitlines()[0].endswith("| eta 1.0s")

    def test_round_lines_name_their_own_figure(self):
        # One batch holding two figures' jobs: the counter spans the
        # round, the tag names each job's own figure.
        printer, telemetry, stream = self.printer()
        printer.start_batch(3, expected_sim=0)
        for label, batch in (("a", "fig5"), ("b", "fig7"), ("c", "fig5")):
            printer.job_done(
                telemetry.record(label, batch, label, 0.0, SOURCE_CACHE))
        assert stream.getvalue().splitlines() == [
            "  [fig5 1/3] a: 0.00s (cache)",
            "  [fig7 2/3] b: 0.00s (cache)",
            "  [fig5 3/3] c: 0.00s (cache)",
        ]

    def test_campaign_starts_one_progress_batch_per_round(self):
        from repro.experiments.campaign import run_campaign
        from repro.experiments.common import Settings

        stream = io.StringIO()
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        report = run_campaign(("fig5", "fig10"), tiny, jobs=1,
                              cache_dir=None, stream=stream)
        lines = [re.match(r"  \[(\S+) (\d+)/(\d+)\] (.+): ", line).groups()
                 for line in stream.getvalue().splitlines()]
        # A round restarts the counter at 1 and counts to its size.
        rounds = []
        for batch, done, total, label in lines:
            if done == "1":
                rounds.append([])
            rounds[-1].append((batch, label, int(done), int(total)))
        assert [len(r) for r in rounds] == [
            r[0][3] for r in rounds]
        assert [[d for _, _, d, _ in r] for r in rounds] == [
            list(range(1, len(r) + 1)) for r in rounds]
        # fig10 makes three calls; fig5 joins only the first round.
        assert [sorted({b for b, *_ in r}) for r in rounds] == [
            ["fig10", "fig5"], ["fig10"], ["fig10"]]
        assert sorted((b, label) for r in rounds for b, label, *_ in r) == \
            sorted((rec.batch, rec.label) for rec in report.telemetry.records)

    def test_null_progress_accepts_the_same_calls(self):
        null = NullProgress()
        null.start_batch(3, expected_sim=1)
        null.job_done(
            CampaignTelemetry().record("a", "fig5", "h", 1.0, SOURCE_CACHE))


class _FakeTTY(io.StringIO):
    def isatty(self):
        return True


class TestAnsiSuppression:
    """Escape codes only ever reach a real TTY; everything redirected
    (pipes, files, service logs, CI) stays plain text."""

    def test_non_tty_stream_disables_ansi(self, monkeypatch):
        monkeypatch.delenv(NO_ANSI_ENV, raising=False)
        assert ansi_enabled(io.StringIO()) is False
        assert ansi_enabled(None) is False

    def test_tty_stream_enables_ansi(self, monkeypatch):
        monkeypatch.delenv(NO_ANSI_ENV, raising=False)
        assert ansi_enabled(_FakeTTY()) is True

    def test_env_override_wins_even_on_a_tty(self, monkeypatch):
        monkeypatch.setenv(NO_ANSI_ENV, "1")
        assert ansi_enabled(_FakeTTY()) is False

    def test_closed_stream_is_not_a_tty(self, monkeypatch):
        monkeypatch.delenv(NO_ANSI_ENV, raising=False)
        stream = open(os.devnull, "w")
        stream.close()
        assert ansi_enabled(stream) is False

    def test_progress_printer_emits_no_escapes_on_non_tty(self,
                                                          monkeypatch):
        monkeypatch.delenv(NO_ANSI_ENV, raising=False)
        telemetry = CampaignTelemetry(workers=2)
        stream = io.StringIO()
        printer = ProgressPrinter(telemetry, stream)
        assert printer.ansi is False
        printer.start_batch(2, expected_sim=2)
        printer.job_done(
            telemetry.record("a", "fig5", "h1", 2.0, SOURCE_SIMULATED))
        assert "\x1b" not in stream.getvalue()

    def test_progress_printer_styles_when_forced(self):
        telemetry = CampaignTelemetry(workers=2)
        stream = io.StringIO()
        printer = ProgressPrinter(telemetry, stream, ansi=True)
        printer.start_batch(2, expected_sim=2)
        printer.job_done(
            telemetry.record("a", "fig5", "h1", 2.0, SOURCE_SIMULATED))
        out = stream.getvalue()
        assert "\x1b[" in out
        assert out.endswith("\n")  # still newline-terminated lines

    def test_render_is_plain_by_default_and_styled_on_request(self):
        telemetry = sample_telemetry()
        assert "\x1b" not in telemetry.render()
        styled = telemetry.render(color=True)
        assert "\x1b[" in styled
        # Styling never changes the words, only wraps them.
        assert re.sub(r"\x1b\[[0-9;]*m", "", styled) == telemetry.render()

"""Tests for the command-line interface's argument handling."""

import argparse

import pytest

from repro.experiments.cli import _settings, main, run_figure
from repro.experiments.common import Settings


def parse(**over):
    defaults = dict(scale=0, uni_txns=0, mp_txns=0, seed=7, quick=False)
    defaults.update(over)
    return argparse.Namespace(**defaults)


class TestSettingsResolution:
    def test_defaults_are_paper(self):
        s = _settings(parse())
        assert s == Settings.paper()

    def test_quick_flag(self):
        s = _settings(parse(quick=True))
        assert s.scale == Settings.quick().scale
        assert s.uni_txns == Settings.quick().uni_txns

    def test_explicit_overrides_win(self):
        s = _settings(parse(scale=48, uni_txns=123, mp_txns=456))
        assert (s.scale, s.uni_txns, s.mp_txns) == (48, 123, 456)

    def test_override_on_top_of_quick(self):
        s = _settings(parse(quick=True, scale=40))
        assert s.scale == 40
        assert s.mp_txns == Settings.quick().mp_txns

    def test_seed_passthrough(self):
        assert _settings(parse(seed=99)).seed == 99

    def test_check_passthrough(self):
        assert _settings(parse(check="per-quantum")).check == "per-quantum"

    def test_namespace_without_check_still_works(self):
        # Older call sites build a Namespace without the --check field.
        assert _settings(parse()).check == "off"


class TestCsvExport:
    def test_fig7_writes_csv(self, tmp_path):
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        run_figure("fig7", tiny, csv_dir=str(tmp_path))
        out = tmp_path / "fig7.csv"
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("configuration,")

    def test_fig3_no_csv_needed(self, tmp_path):
        run_figure("fig3", Settings.paper(), csv_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_missing_csv_dir_is_created(self, tmp_path):
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        target = tmp_path / "does" / "not" / "exist"
        run_figure("fig7", tiny, csv_dir=str(target))
        assert (target / "fig7.csv").exists()


class TestMain:
    def test_bad_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_ablations_accepted_as_choice(self, capsys):
        # Parse-only check: ensure the choice exists (run would be slow).
        with pytest.raises(SystemExit):
            main(["ablations", "--no-such-flag"])

    def test_selftest_accepted_as_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["selftest", "--no-such-flag"])

    def test_driver_error_gives_exit_code_not_traceback(self, capsys):
        # A bad scale blows up inside the trace generator; the CLI must
        # turn that into a one-line stderr message and a nonzero exit.
        code = main(["fig5", "--scale", "-5"])
        assert code == 1
        captured = capsys.readouterr()
        assert "repro-oltp:" in captured.err
        assert "Traceback" not in captured.err

    def test_successful_run_exits_zero(self, capsys, tmp_path):
        code = main(["fig3", "--csv", str(tmp_path / "new_dir")])
        assert code == 0
        assert (tmp_path / "new_dir").is_dir()

    def test_version_flag_prints_build_identity(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro-oltp ")
        assert "code version" in out

    def test_serve_accepted_as_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--no-such-flag"])

    def test_loadgen_accepted_as_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["loadgen", "--no-such-flag"])

    def test_loadgen_bad_corpus_target_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["loadgen", "fig99"])
        assert exit_info.value.code == 2
        assert "fig99" in capsys.readouterr().err

    def test_loadgen_bad_mix_rejected(self, capsys):
        code = main(["loadgen", "--mix", "nonsense"])
        assert code == 1
        err = capsys.readouterr().err
        assert "repro-oltp:" in err
        assert "Traceback" not in err

    def test_keyboard_interrupt_reports_completed(self, capsys, monkeypatch):
        import repro.experiments.cli as cli

        calls = []

        def fake_render_figure(name, settings, results, chart=False,
                               csv_dir=None):
            calls.append(name)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return f"[{name} output]"

        # The batch is stubbed out: the interrupt lands while the
        # second figure renders.
        monkeypatch.setattr(cli, "run_simulations",
                            lambda jobs: [None] * len(jobs))
        monkeypatch.setattr(cli, "render_figure", fake_render_figure)
        code = cli.main(["all", "--quick"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "fig3" in err  # the one figure that completed

    def test_interrupted_figure_verb_lists_no_figures_yet(self, capsys,
                                                          monkeypatch):
        import repro.experiments.cli as cli

        def interrupted_batch(jobs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_simulations", interrupted_batch)
        assert cli.main(["fig5", "--quick"]) == 130
        err = capsys.readouterr().err
        assert "repro-oltp: interrupted; figures completed: none" in err

    def test_interrupted_stream_mentions_no_figures(self, capsys,
                                                    monkeypatch):
        import repro.experiments.cli as cli

        def interrupted_stream(args, settings):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_stream", interrupted_stream)
        assert cli.main(["stream", "--quick", "--scale-x", "2"]) == 130
        err = capsys.readouterr().err
        assert "repro-oltp: interrupted" in err
        assert "figures" not in err


class TestStreamVerb:
    def test_stream_runs_and_reports(self, capsys):
        code = main(["stream", "--quick", "--scale-x", "2",
                     "--chunk-txns", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2x the configured count" in out
        assert "peak rss" in out
        assert "measured refs" in out

    def test_stream_rejects_target(self):
        with pytest.raises(SystemExit):
            main(["stream", "fig5"])

    def test_stream_matches_materialized_counts(self, capsys):
        """The stream verb replays the exact reference workload."""
        from repro.trace.generator import build_trace

        code = main(["stream", "--quick", "--scale-x", "1"])
        assert code == 0
        out = capsys.readouterr().out
        quick = Settings.quick()
        trace = build_trace(ncpus=1, scale=quick.scale,
                            txns=quick.uni_txns, seed=7)
        assert f"quanta:        {len(trace.quanta)}" in out
        refs = sum(len(q.refs) for q in trace.quanta)
        assert f"refs:          {refs}" in out


class TestScenarioVerb:
    def test_bare_scenario_lists(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "registered scenarios" in out
        assert "zipf-uni" in out

    def test_list_names_every_registered_scenario(self, capsys):
        from repro.scenario import scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        names = scenario_names()
        assert len(names) >= 5
        for name in names:
            assert name in out

    def test_describe_shows_the_ladder(self, capsys):
        assert main(["scenario", "describe", "islands-mp8"]) == 0
        out = capsys.readouterr().out
        assert "hardware islands" in out
        assert "ladder" in out

    def test_describe_needs_a_name(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "describe"])
        assert exit_info.value.code == 2
        assert "scenario list" in capsys.readouterr().err

    def test_unknown_action_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "frobnicate"])
        assert exit_info.value.code == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_list_rejects_a_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "list", "zipf-uni"])

    def test_name_rejected_outside_scenario_verb(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "fig5", "zipf-uni"])
        assert exit_info.value.code == 2
        assert "scenario" in capsys.readouterr().err

    def test_run_unknown_scenario_fails_fast_listing_names(self, capsys):
        """Satellite acceptance: a typo'd scenario name exits non-zero
        with a structured error listing every registered name — no
        traceback, no partial run."""
        from repro.scenario import scenario_names

        code = main(["scenario", "run", "no-such-scenario"])
        assert code == 1
        err = capsys.readouterr().err
        assert "repro-oltp: error:" in err
        assert "no-such-scenario" in err
        for name in scenario_names():
            assert name in err
        assert "Traceback" not in err

    def test_campaign_rejects_unknown_scenario_target(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "no-such-scenario", "--quick"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "no-such-scenario" in err
        assert "zipf-uni" in err  # the menu includes scenarios

    def test_run_executes_a_scenario_end_to_end(self, capsys):
        code = main(["scenario", "run", "read-heavy-uni",
                     "--scale", "256", "--uni-txns", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario:read-heavy-uni" in out
        assert "workload: 70%balance+30%scan" in out

    def test_run_writes_csv(self, capsys, tmp_path):
        code = main(["scenario", "run", "tpcb-uni",
                     "--scale", "256", "--uni-txns", "10",
                     "--csv", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "tpcb-uni.csv").exists()

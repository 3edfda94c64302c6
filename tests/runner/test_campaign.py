"""End-to-end campaign behaviour: determinism, cache resilience, CLI.

The headline guarantee under test: a figure produced through the
campaign runner — parallel workers, cold cache, or warm cache — is
*identical* to the one the plain serial driver path produces.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.cli import figure_jobs
from repro.experiments.common import Settings
from repro.integrity.errors import ConfigError, FaultInjectionError
from repro.obs import Tracer, use_tracer
from repro.runner import (
    CampaignRunner,
    SupervisedExecutor,
    TraceSpec,
    TraceStore,
    run_simulations,
)
from repro.runner import executor, supervisor
from repro.runner.telemetry import SOURCE_CACHE

FIGS = ("fig5", "fig10")
#: fig10's uni ladder repeats fig5 and fig7 machines: shared job hashes.
ROUND_FIGS = ("fig5", "fig7", "fig10")
#: Only fig7 runs this job.
FAILING_LABEL = "L2 2M2w on-chip-sram"
#: Only fig7 runs this job too; fig7's next replay is also fig10's.
CRASHING_LABEL = "L2 1M8w on-chip-sram"


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


def batch_rows(report):
    """The ``(batch, jobs, sim, served)`` rows of the telemetry table."""
    names = [name for name, _ in report.figures]
    lines = report.telemetry.render(names).splitlines()[2:-1]
    return [tuple(line.split()[:4]) for line in lines]


@pytest.fixture(scope="module")
def clean_rounds():
    return run_campaign(ROUND_FIGS, Settings.quick(), jobs=1,
                        cache_dir=None, progress=False)


class TestOneBatch:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_hashes_credit_the_earlier_figure(self, tmp_path, jobs,
                                                     clean_rounds):
        report = run_campaign(ROUND_FIGS, Settings.quick(), jobs=jobs,
                              cache_dir=str(tmp_path), progress=False)
        # Measured on the campaign that ran one figure at a time: the
        # earlier figure simulates a shared job, the later one is served.
        expected = [("fig5", "9", "8", "1"), ("fig7", "7", "4", "3"),
                    ("fig10", "8", "3", "5")]
        assert batch_rows(report) == expected
        assert batch_rows(clean_rounds) == expected
        assert report.figures == clean_rounds.figures

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_job_fails_only_its_figure(self, monkeypatch, jobs,
                                               clean_rounds):
        real = supervisor.simulate_job

        def simulate(job, trace):
            if job.label == FAILING_LABEL:
                raise FaultInjectionError("injected")
            return real(job, trace)

        # In process, and in the workers the pool forks afterwards.
        monkeypatch.setattr(executor, "simulate_job", simulate)
        monkeypatch.setattr(supervisor, "simulate_job", simulate)
        report = run_campaign(ROUND_FIGS, Settings.quick(), jobs=jobs,
                              cache_dir=None, progress=False)
        assert list(report.failures) == ["fig7"]
        (failure,) = report.failures["fig7"]
        assert failure["label"] == FAILING_LABEL
        assert failure["kind"] == "error"
        assert "FaultInjectionError: injected" in failure["message"]
        assert report.telemetry.resilience.failures == 1
        clean = dict(clean_rounds.figures)
        texts = dict(report.figures)
        assert texts["fig7"].startswith("[fig7 FAILED:")
        for name in ("fig5", "fig10"):
            assert texts[name] == clean[name]

    def test_job_that_kills_its_worker_fails_only_its_figure(
            self, monkeypatch, clean_rounds):
        real = supervisor.simulate_job

        def simulate(job, trace):
            if job.label == CRASHING_LABEL:
                os._exit(1)
            return real(job, trace)

        # The workers the pool forks afterwards inherit it.
        monkeypatch.setattr(supervisor, "simulate_job", simulate)
        # fig7 first: its replays start while fig5's and fig10's wait,
        # so the pool gives up on a batch that still holds them.
        report = run_campaign(("fig7", "fig5", "fig10"), Settings.quick(),
                              jobs=2, cache_dir=None, progress=False)
        assert list(report.failures) == ["fig7"]
        failures = report.failures["fig7"]
        assert CRASHING_LABEL in [f["label"] for f in failures]
        assert {f["kind"] for f in failures} == {"crash"}
        assert report.telemetry.resilience.failures == len(failures)
        clean = dict(clean_rounds.figures)
        texts = dict(report.figures)
        for name in ("fig5", "fig10"):
            assert texts[name] == clean[name]

    def test_one_span_for_the_batch(self):
        tracer = Tracer()
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        with use_tracer(tracer):
            report = run_campaign(("fig5", "fig10"), tiny, jobs=1,
                                  cache_dir=None, progress=False)
        (batch,) = [s for s in tracer.spans if s.name == "campaign.batch"]
        assert batch.args["figures"] == "fig5,fig10"
        assert batch.args["jobs"] == report.telemetry.total_jobs
        assert batch.args["replays"] == report.telemetry.simulated

    def test_run_batch_hands_each_request_its_own_results(self):
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        jobs = figure_jobs("fig5", tiny)
        # "b" overlaps "a" on jobs 2 and 3; "none" asks for nothing.
        requests = [("a", jobs[:4]), ("none", []), ("b", jobs[2:])]
        with CampaignRunner(jobs=1) as runner:
            replies = runner.run_batch(requests)
        assert [len(r) for r in replies] == [4, 0, len(jobs) - 2]
        for (_, batch), reply in zip(requests, replies):
            assert ([r.to_dict() for r in reply]
                    == [r.to_dict() for r in run_simulations(batch)])
        shared = {job.content_hash() for job in jobs[2:4]}
        credited = {(rec.batch, rec.source) for rec in runner.telemetry.records
                    if rec.job_hash in shared}
        assert ("b", SOURCE_CACHE) in credited
        assert all(source != SOURCE_CACHE
                   for batch, source in credited if batch == "a")

    def test_interrupted_batch_closes_the_runner(self, monkeypatch):
        closed = []
        real_close = CampaignRunner.close

        def interrupt(self, *args):
            # The first settled job: the worker pool is up and busy.
            assert self._supervisor is not None
            raise KeyboardInterrupt

        def close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(CampaignRunner, "_record", interrupt)
        monkeypatch.setattr(CampaignRunner, "close", close)
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(("fig5", "fig10"), tiny, jobs=2, cache_dir=None,
                         progress=False)
        assert len(closed) == 1
        assert closed[0]._supervisor is None
        assert multiprocessing.active_children() == []

    def test_unknown_figure_raises_before_anything_runs(self, monkeypatch):
        def never(self, requests):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(CampaignRunner, "run_batch", never)
        with pytest.raises(ConfigError):
            run_campaign(("fig5", "no-such-figure"), Settings.quick(),
                         jobs=1, cache_dir=None, progress=False)

    def test_batch_that_cannot_start_fails_every_figure(self, monkeypatch):
        def refuse(self, requests):
            raise FaultInjectionError("pool refused")

        monkeypatch.setattr(CampaignRunner, "run_batch", refuse)
        stream = io.StringIO()
        tiny = Settings(scale=256, uni_txns=15, mp_txns=30, seed=3)
        report = run_campaign(("fig5", "fig10"), tiny, jobs=1,
                              cache_dir=None, progress=False, stream=stream)
        assert list(report.failures) == ["fig5", "fig10"]
        for name, failures in report.failures.items():
            assert failures == [{"label": name, "job_hash": "",
                                 "kind": "error", "message": "pool refused",
                                 "attempts": 1}]
        assert [text for _, text in report.figures] == [
            "[fig5 FAILED: pool refused]", "[fig10 FAILED: pool refused]"]
        assert "campaign: fig10 failed: pool refused" in stream.getvalue()


def _broken_build(spill_dir, spec, with_obs):
    raise RuntimeError("builder lost")


class TestArchiveTraces:
    SPECS = [TraceSpec(ncpus=n, scale=256, txns=15, warmup_txns=5, seed=3)
             for n in (1, 2)]

    def test_cold_traces_build_in_their_own_processes(self, tmp_path):
        store = TraceStore(spill_dir=str(tmp_path))
        tracer = Tracer()
        with use_tracer(tracer):
            SupervisedExecutor(2, store)._archive_traces(self.SPECS,
                                                         with_obs=True)
        assert all(store.is_archived(spec) for spec in self.SPECS)
        assert store.stats.builds == 0
        builds = [s for s in tracer.spans if s.name == "trace.build"]
        assert sorted(s.args["ncpus"] for s in builds) == [1, 2]
        assert os.getpid() not in {s.pid for s in builds}
        for spec in self.SPECS:
            built, archived = spec.build(), store.get(spec)
            assert ([(q.cpu, list(q.refs)) for q in archived.quanta]
                    == [(q.cpu, list(q.refs)) for q in built.quanta])

    def test_a_failed_build_is_retried_here(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor, "_archive_trace", _broken_build)
        store = TraceStore(spill_dir=str(tmp_path))
        SupervisedExecutor(2, store)._archive_traces(self.SPECS,
                                                     with_obs=False)
        assert all(store.is_archived(spec) for spec in self.SPECS)
        assert store.stats.builds == 2

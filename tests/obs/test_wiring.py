"""Observability wiring: engines, checker, campaign, and the CLI.

The contract under test has two halves.  *Completeness*: with a tracer
and registry installed, every instrumented layer — ``System.run``, the
replay engines' phases, the trace generator, the integrity checker,
the campaign executor (including worker processes) — shows up in the
spans and metrics.  *Transparency*: enabling all of it changes no
simulated value (the differential identity ``fast == vectorized ==
vectorized-mp`` holds with observability on), and the per-quantum
series totals reconcile exactly with the end-of-run aggregates.
"""

from __future__ import annotations

import json

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import System, simulate
from repro.experiments.cli import main
from repro.obs import (
    MetricsRegistry,
    Tracer,
    use_metrics,
    use_tracer,
)
from repro.params import KB
from repro.runner import CampaignRunner, SimJob, TraceSpec
from repro.trace.generator import build_trace

#: Matches tests/conftest.py TEST_SCALE, the size of the shared traces.
SCALE = 128


def base_machine(ncpus=1, **kw):
    kw.setdefault("scale", SCALE)
    return MachineConfig.base(ncpus, **kw)


def stream_machine(ncpus=8):
    """A RAC + OOO config: forces the staged pipeline's stream mode."""
    return MachineConfig.fully_integrated(
        ncpus, rac_size=256 * KB, cpu_model="ooo", scale=SCALE)


def traced_run(machine, trace, engine=None, check="off"):
    """Simulate under a fresh tracer+registry; return (result, t, m)."""
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        if engine is None:
            result = simulate(machine, trace, check=check)
        else:
            result = System(machine, engine=engine, check=check).run(trace)
    return result, tracer, registry


class TestTransparency:
    """Observability on == observability off, value for value."""

    def test_uniprocessor_engines_identical_with_obs_on(self, uni_trace):
        machine = base_machine(1)
        plain = simulate(machine, uni_trace).to_dict()
        for engine in ("fast", "vectorized"):
            traced = traced_run(machine, uni_trace, engine)[0].to_dict()
            assert traced == plain, engine

    def test_mp_engines_identical_with_obs_on(self, mp8_trace):
        machine = base_machine(8)
        plain = simulate(machine, mp8_trace).to_dict()
        for engine in ("fast", "vectorized-mp"):
            traced = traced_run(machine, mp8_trace, engine)[0].to_dict()
            assert traced == plain, engine

    def test_mp_stream_mode_identical_with_obs_on(self, mp8_trace):
        # RAC + OOO forces the staged pipeline through its stream mode.
        machine = stream_machine()
        plain = System(machine, engine="fast").run(mp8_trace).to_dict()
        traced = traced_run(machine, mp8_trace, "vectorized-mp")[0].to_dict()
        assert traced == plain


class TestEngineSpans:
    def test_system_and_engine_spans(self, uni_trace):
        machine = base_machine(1)
        _, tracer, _ = traced_run(machine, uni_trace, "fast")
        names = [s.name for s in tracer.spans]
        assert "system.run" in names
        assert "engine.fast" in names
        run_span = next(s for s in tracer.spans if s.name == "system.run")
        assert run_span.args["engine"] == "fast"
        assert run_span.args["label"] == machine.label

    def test_vectorized_uni_phase_spans(self, uni_trace):
        _, tracer, _ = traced_run(base_machine(1), uni_trace, "vectorized")
        names = {s.name for s in tracer.spans}
        assert {"uni.views", "uni.walk", "uni.finalize"} <= names

    def test_mp_batch_phase_spans_nest_in_engine(self, mp8_trace):
        _, tracer, _ = traced_run(base_machine(8), mp8_trace,
                                  "vectorized-mp")
        spans = {s.name: s for s in tracer.spans}
        for phase in ("mp.census", "mp.walks", "mp.coherence", "mp.timing",
                      "mp.materialize"):
            assert phase in spans, phase
        engine = spans["engine.vectorized-mp"]
        for phase in ("mp.walks", "mp.coherence", "mp.timing"):
            span = spans[phase]
            assert span.ts >= engine.ts
            assert span.ts + span.dur <= engine.ts + engine.dur + 1e-6

    def test_mp_stream_phase_spans(self, mp8_trace):
        machine = stream_machine()
        _, tracer, _ = traced_run(machine, mp8_trace, "vectorized-mp")
        spans = {s.name: s for s in tracer.spans}
        assert spans["mp.walks"].args == {"mode": "stream",
                                          "coherence": "inline"}
        assert spans["mp.timing"].args == {"mode": "stream"}
        assert "mp.coherence" not in spans

    def test_trace_build_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            build_trace(ncpus=1, scale=SCALE, txns=10, warmup_txns=5,
                        seed=3)
        (span,) = [s for s in tracer.spans if s.name == "trace.build"]
        assert span.args["ncpus"] == 1
        assert span.args["scale"] == SCALE


class TestQuantumSeriesWiring:
    @pytest.mark.parametrize("engine", ["fast", "vectorized-mp"])
    def test_series_totals_match_end_of_run_breakdown(self, mp8_trace,
                                                      engine):
        result, _, registry = traced_run(base_machine(8), mp8_trace, engine)
        (series,) = registry.series
        misses = result.misses
        assert series.total_misses == misses.total
        assert sum(series.miss_local) == misses.i_local + misses.d_local
        assert sum(series.miss_2hop) == (misses.i_remote
                                         + misses.d_remote_clean)
        assert sum(series.miss_3hop) == misses.d_remote_dirty
        assert series.dirty_share == misses.dirty_share
        assert series.meta["engine"] == engine
        assert series.meta["ncpus"] == 8

    def test_fast_and_mp_series_are_identical(self, mp8_trace):
        machine = base_machine(8)
        fast = traced_run(machine, mp8_trace, "fast")[2].series[0]
        staged = traced_run(machine, mp8_trace, "vectorized-mp")[2].series[0]
        for field in ("quantum", "miss_local", "miss_2hop", "miss_3hop",
                      "i_refs"):
            assert getattr(fast, field) == getattr(staged, field), field
        # Batch mode's directory gauge covers coherence-tracked shared
        # lines only (private lines bypass the directory until the run
        # materializes): a positive lower bound on the live occupancy.
        for flat, live in zip(staged.dir_lines, fast.dir_lines):
            assert 0 < flat <= live

    def test_only_measured_quanta_are_sampled(self, mp8_trace):
        _, _, registry = traced_run(base_machine(8), mp8_trace, "fast")
        (series,) = registry.series
        assert len(series) == len(mp8_trace.quanta) - mp8_trace.warmup_quanta
        assert series.quantum[0] == mp8_trace.warmup_quanta

    def test_rac_columns_populated_in_stream_mode(self, mp8_trace):
        machine = stream_machine()
        result, _, registry = traced_run(machine, mp8_trace,
                                         "vectorized-mp")
        (series,) = registry.series
        assert sum(series.rac_probes) > 0
        assert sum(series.rac_hits) == result.rac.hits

    def test_vectorized_uni_engine_opens_no_series(self, uni_trace):
        # The numpy kernel replays out of trace order: no per-quantum
        # sampling point exists, so it must not open a series.
        _, _, registry = traced_run(base_machine(1), uni_trace, "vectorized")
        assert registry.series == []

    def test_disabled_metrics_build_no_sampler(self, uni_trace):
        machine = base_machine(1)
        system = System(machine, engine="fast")
        system.run(uni_trace)
        assert system._sampler is None


class TestIntegrityMetrics:
    def test_checker_emits_span_and_counters(self, uni_trace):
        _, tracer, registry = traced_run(base_machine(1), uni_trace, "fast",
                                         check="end-of-run")
        assert registry.counters["integrity.checks_run"] >= 1
        assert "integrity.violations" not in registry.counters
        checks = [s for s in tracer.spans if s.name == "integrity.check"]
        assert checks
        assert all(s.args == {"tier": "end-of-run"} for s in checks)

    def test_per_quantum_tier_counts_every_walk(self, uni_trace):
        _, tracer, registry = traced_run(base_machine(1), uni_trace,
                                         "general", check="per-quantum")
        walks = registry.counters["integrity.checks_run"]
        assert walks > 1
        spans = [s for s in tracer.spans if s.name == "integrity.check"]
        assert len(spans) == walks
        assert spans[0].args == {"tier": "per-quantum"}


class TestCampaignSpans:
    def jobs(self, n=2):
        spec = TraceSpec(ncpus=1, scale=SCALE, txns=20, seed=11)
        return [
            SimJob(spec=spec,
                   machine=base_machine(1, l2_size=(i + 1) * 1024 * 1024),
                   check="off")
            for i in range(n)
        ]

    def test_serial_jobs_open_tagged_spans(self):
        jobs = self.jobs()
        tracer = Tracer()
        with use_tracer(tracer), CampaignRunner(jobs=1) as runner:
            runner.run_jobs(jobs)
        spans = [s for s in tracer.spans if s.name == "campaign.job"]
        assert len(spans) == len(jobs)
        assert {s.args["hash"] for s in spans} == {
            j.content_hash() for j in jobs
        }
        assert all(s.args["source"] == "simulated" for s in spans)
        assert all(s.args["engine"] == "vectorized" for s in spans)

    def test_cache_hits_open_cache_tagged_spans(self, tmp_path):
        from repro.runner import ResultCache

        jobs = self.jobs()
        cache = ResultCache(str(tmp_path))
        with CampaignRunner(jobs=1, cache=cache) as runner:
            runner.run_jobs(jobs)  # cold, untraced
        tracer = Tracer()
        with use_tracer(tracer), CampaignRunner(jobs=1, cache=cache) as warm:
            warm.run_jobs(jobs)
        spans = [s for s in tracer.spans if s.name == "campaign.job"]
        assert len(spans) == len(jobs)
        assert all(s.args["source"] == "cache" for s in spans)

    def test_parallel_workers_ship_spans_and_metrics_back(self):
        jobs = self.jobs(2)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            with CampaignRunner(jobs=2) as runner:
                results = runner.run_jobs(jobs)
        assert len(results) == 2
        spans = [s for s in tracer.spans if s.name == "campaign.job"]
        assert len(spans) == 2
        # Worker spans keep the worker's identity for per-process
        # Perfetto tracks.
        assert all(s.tid == "worker" for s in spans)
        assert all(s.pid != tracer.pid for s in spans)
        # The workers' engine spans and quantum series came along too.
        assert sum(1 for s in tracer.spans if s.name == "system.run") == 2
        assert registry.series == []  # vectorized uni: aggregates only

    def test_untraced_parallel_run_ships_no_payload(self):
        with CampaignRunner(jobs=2) as runner:
            results = runner.run_jobs(self.jobs(2))
        assert len(results) == 2


class TestCLI:
    def test_fig8_quick_metrics_dump_shows_dirty_share_rising(
            self, tmp_path, capsys):
        out = tmp_path / "fig8.json"
        assert main(["fig8", "--quick", "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        # One series per fig8 machine configuration, all 8 CPUs.
        assert all(s["meta"]["ncpus"] == 8 for s in data["series"])
        # The paper's sharing story, time-resolved: at fixed 8-way
        # associativity, growing the L2 converts 2-hop clean misses
        # into 3-hop dirty misses, so the dirty share rises strictly
        # with L2 size.
        eight_way = sorted(
            (s for s in data["series"] if s["meta"]["l2_assoc"] == 8),
            key=lambda s: s["meta"]["l2_bytes"],
        )
        assert len(eight_way) >= 3
        shares = [s["dirty_share"] for s in eight_way]
        assert shares == sorted(shares)
        assert len(set(shares)) == len(shares), shares
        assert all(len(s["quantum"]) > 0 for s in eight_way)

    def test_metrics_csv_suffix_selects_csv(self, tmp_path, capsys):
        out = tmp_path / "fig8.csv"
        assert main(["fig8", "--quick", "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        header = out.read_text().splitlines()[0]
        assert header.startswith("series,label,engine,quantum,miss_local")

    def test_profile_verb_prints_table_and_writes_trace(self, tmp_path,
                                                        capsys):
        trace_out = tmp_path / "fig6.trace.json"
        assert main(["profile", "fig6", "--quick",
                     "--trace-out", str(trace_out)]) == 0
        printed = capsys.readouterr().out
        assert "span self-time profile" in printed
        assert "engine.vectorized-mp" in printed
        # The span tree accounts for (nearly) the whole run: the
        # acceptance bar is coverage within 10% of measured wall time.
        footer = next(line for line in printed.splitlines()
                      if "of" in line and "wall" in line)
        coverage = float(footer.split("covers")[1].split("%")[0])
        assert coverage >= 90.0, footer
        payload = json.loads(trace_out.read_text())
        events = payload["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "system.run"
                   for e in events)
        assert any(e["ph"] == "M" for e in events)

    def test_profile_requires_known_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile"])
        with pytest.raises(SystemExit):
            main(["profile", "nope"])
        with pytest.raises(SystemExit):
            main(["fig5", "fig6"])
        capsys.readouterr()

    def test_plain_figure_run_stays_on_null_observability(self, capsys):
        from repro.obs import NULL_METRICS, NULL_TRACER, current_metrics, \
            current_tracer

        assert main(["fig3"]) == 0
        capsys.readouterr()
        assert current_tracer() is NULL_TRACER
        assert current_metrics() is NULL_METRICS


class TestStreamChunkSpans:
    """The streaming replay path emits one ``stream.chunk`` span per
    consumed chunk — and none at all for materialized traces."""

    CHUNK = 4

    def _streamed_spans(self, trace, machine, engine):
        from repro.trace.stream import StreamedTrace

        tracer = Tracer()
        with use_tracer(tracer):
            result = System(machine, engine=engine).run(
                StreamedTrace.from_trace(trace, self.CHUNK))
        chunks = [s for s in tracer.spans if s.name == "stream.chunk"]
        return result, chunks

    def test_chunk_spans_cover_the_whole_stream(self, uni_trace):
        machine = base_machine(1)
        result, chunks = self._streamed_spans(uni_trace, machine, "fast")
        n = len(uni_trace.quanta)
        expected = -(-n // self.CHUNK)
        assert len(chunks) == expected
        assert [s.args["chunk"] for s in chunks] == list(range(expected))
        # Spans account for every quantum and reference, contiguously.
        assert sum(s.args["quanta"] for s in chunks) == n
        assert sum(s.args["refs"] for s in chunks) == uni_trace.total_refs
        start = 0
        for span in chunks:
            assert span.args["start"] == start
            assert span.args["engine"] == "fast"
            assert span.dur >= 0.0
            start += span.args["quanta"]
        # Transparency: streamed-with-spans equals plain materialized.
        assert result.to_dict() == simulate(machine, uni_trace).to_dict()

    def test_general_engine_tags_its_chunk_spans(self, uni_trace):
        machine = base_machine(1)
        _, chunks = self._streamed_spans(uni_trace, machine, "general")
        assert chunks
        assert {s.args["engine"] for s in chunks} == {"general"}

    def test_materialized_replay_emits_no_chunk_spans(self, uni_trace):
        tracer = Tracer()
        with use_tracer(tracer):
            simulate(base_machine(1), uni_trace)
        assert not any(s.name == "stream.chunk" for s in tracer.spans)

    def test_disabled_tracer_emits_no_chunk_spans(self, uni_trace):
        from repro.trace.stream import StreamedTrace

        result = System(base_machine(1), engine="fast").run(
            StreamedTrace.from_trace(uni_trace, self.CHUNK))
        assert result.to_dict() == simulate(
            base_machine(1), uni_trace).to_dict()

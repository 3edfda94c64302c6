"""Per-layer metrics from a traced run.

Layers are named after their modules: ``trace`` (``repro.oltp``,
``trace.generator``/``stream``/``census``), ``uni``
(``memsys.vectorized``), ``mp`` (``memsys.vectorized_mp``; its
``coherence`` and ``cpu`` work shows as the ``mp.coherence`` and
``mp.timing`` phases), ``replay`` (``core.system`` engine dispatch),
``runner``, ``service`` and ``experiments``.

Times come from the spans ``src/`` already records (``trace.build``,
``mp.census``, ``mp.walks`` with its ``mode`` tag, ``uni.walk``,
``campaign.job``, ``stream.chunk``, ...); counts come from the metrics
registry, the campaign telemetry and the service's ``GET /stats``.
Reference counts are measured trace references (``RunResult.trace_refs``),
attributed to a span through its nearest ancestor carrying a job
``hash`` (a ``campaign.job`` span, or the benchmark's own ``bench.job``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs import assign_parents, self_time_table

ENGINES = ("fast", "general", "vectorized", "vectorized-mp")

#: What lies outside every program span on each replay-heavy workload
#: (the coverage remainder the record names).
UNCOVERED = {
    "campaign-cold": "worker pool start-up, shared-memory publish, result "
                     "IPC/cache writes and figure rendering in the driver",
    "sweep": "System construction and the benchmark's digest checks "
             "between replays",
    "trace-stream": "stream set-up before the first chunk and result "
                    "collection",
}


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _clip(span, window) -> Optional[Tuple[float, float]]:
    lo, hi = max(span.ts, window[0]), min(span.ts + span.dur, window[1])
    return (lo, hi) if hi > lo else None


def per_layer(spans, extra_spans, window, refs_by_hash: Dict[str, int],
              registry, facts: dict) -> dict:
    """Per-layer values by metric name; a layer that did not run is absent.

    ``spans`` share this process's clock (campaign workers included),
    ``window`` is the traced body's interval on it; ``extra_spans``
    come from other processes and contribute durations only.
    """
    values = dict(facts)
    every = list(spans) + list(extra_spans)
    parents = assign_parents(every)

    def refs_of(i: Optional[int]) -> int:
        while i is not None:
            job_hash = every[i].args.get("hash")
            if job_hash is not None:
                return refs_by_hash.get(job_hash, 0)
            i = parents[i]
        return 0

    total: Dict[str, float] = {}
    refs: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for i, span in enumerate(every):
        key = span.name
        if key == "mp.walks":
            key = f"mp.walks.{span.args.get('mode', 'batch')}"
        total[key] = total.get(key, 0.0) + span.dur
        calls[key] = calls.get(key, 0) + 1
        if key == "stream.chunk":
            refs[key] = refs.get(key, 0) + span.args.get("refs", 0)
        else:
            refs[key] = refs.get(key, 0) + refs_of(i)

    def rate(key: str) -> float:
        return refs.get(key, 0) / total[key] if total.get(key) else 0.0

    values["trace.build_s"] = total.get("trace.build", 0.0)
    if values["trace.build_s"]:
        values["trace.build_refs_per_s"] = (facts.get("trace.built_refs", 0)
                                            / values["trace.build_s"])
    if "trace.stream" in total:
        values["trace.stream_gen_s"] = (total["trace.stream"]
                                        - total.get("stream.chunk", 0.0))
    self_time = {row["name"]: row["self"] for row in self_time_table(every)}
    values["census.s"] = self_time.get("mp.census", 0.0)
    for phase in ("views", "walk", "finalize"):
        values[f"uni.{phase}_s"] = total.get(f"uni.{phase}", 0.0)
    values["uni.walk_refs_per_s"] = rate("uni.walk")
    values["uni.job_refs_per_s"] = rate("engine.vectorized")
    for mode in ("batch", "stream"):
        values[f"mp.walks.{mode}_s"] = total.get(f"mp.walks.{mode}", 0.0)
        values[f"mp.walks.{mode}_refs_per_s"] = rate(f"mp.walks.{mode}")
    for phase in ("coherence", "timing", "materialize"):
        values[f"mp.{phase}_s"] = total.get(f"mp.{phase}", 0.0)
    values["mp.job_refs_per_s"] = rate("engine.vectorized-mp")
    for engine in ENGINES:
        values[f"replay.{engine}.jobs"] = calls.get(f"engine.{engine}", 0)
        values[f"replay.{engine}.s"] = total.get(f"engine.{engine}", 0.0)
    values["replay.fast.refs_per_s"] = rate("stream.chunk") or rate(
        "engine.fast")

    # The benchmark's reference loops run between the program's calls.
    wall = window[1] - window[0] - total.get("bench.reference", 0.0)
    jobs = [iv for s in spans
            if s.name == "campaign.job"
            and s.args.get("source") == "simulated"
            for iv in [_clip(s, window)] if iv]
    if jobs:
        busy = sum(hi - lo for lo, hi in jobs)
        values["runner.job_s"] = busy
        values["runner.worker_busy_frac"] = busy / (facts["workers"] * wall)
        values["runner.driver_s"] = wall - _union(jobs)
        counters = registry.to_dict()["counters"]
        values["runner.shm_segments"] = counters.get(
            "campaign.shm_segments", 0)

    covered = _union([iv for s in spans if not s.name.startswith("bench.")
                      for iv in [_clip(s, window)] if iv])
    if covered:
        values["obs.coverage_frac"] = covered / wall
        values["obs.uncovered_s"] = wall - covered
    return values


def coverage_note(workload: str, values: dict) -> str:
    if workload not in UNCOVERED:
        return ("not measured: the service's work runs in the server "
                "process, whose worker spans are not shipped back")
    frac = values["obs.coverage_frac"]
    verdict = "meets" if frac >= 0.9 else "BELOW"
    return (f"program spans cover {100 * frac:.1f}% of the traced wall "
            f"({verdict} the 90% target); the remaining "
            f"{values['obs.uncovered_s']:.3f} s is {UNCOVERED[workload]}")

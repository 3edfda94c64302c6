"""Metrics: named counters/gauges/histograms and per-quantum series.

The :class:`MetricsRegistry` is the numeric side of the observability
subsystem.  Instruments are created on first use and keyed by
dot-separated names (``integrity.checks_run``); a registry is cheap
enough to build per run or per campaign and merges across process
boundaries via :meth:`MetricsRegistry.to_dict` /
:meth:`MetricsRegistry.absorb`, mirroring the tracer's worker
stitching.

:class:`QuantumSeries` is the piece the paper's figures cannot give
you: *time-resolved* trajectories sampled once per scheduling quantum
by the replay engines — the miss-kind mix (local / 2-hop remote-clean
/ 3-hop remote-dirty), L2 misses against instructions executed (MPKI),
directory occupancy, and RAC hit rate.  End-of-run aggregates show
*that* a bigger L2 converts 2-hop misses into 3-hop dirty misses;
the series shows *when*.  Samplers take cumulative counter snapshots
and store per-quantum deltas, so the engines pass the counters they
already maintain and pay one ``sample()`` call per measured quantum —
and nothing at all when metrics are disabled (the engines hold
``None`` instead of a sampler).

Like tracing, metrics are observational by contract: sampling reads
simulator counters and never writes simulator state.

Counter families by convention: ``integrity.*`` (checker),
``campaign.*`` (runner), ``service.*`` (job service), ``cache.*`` (result cache) and
``stream.*`` (streaming trace store: ``stream.builds``,
``stream.spills``, ``stream.archive_streams``); the streaming replay
path additionally emits one ``stream.chunk`` span per consumed chunk
when tracing is enabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.params import INSTRS_PER_ILINE

__all__ = [
    "NULL_METRICS",
    "MetricsRegistry",
    "NullMetrics",
    "QuantumSeries",
    "current_metrics",
    "use_metrics",
]


class HistogramSummary:
    """Streaming summary of an observed distribution (no buckets)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, data: dict) -> None:
        self.count += data.get("count", 0)
        self.total += data.get("total", 0.0)
        for key, better in (("min", min), ("max", max)):
            other = data.get(key)
            if other is None:
                continue
            mine = getattr(self, key)
            setattr(self, key, other if mine is None else better(mine, other))


class QuantumSeries:
    """Per-quantum deltas of the headline memory-system metrics.

    ``sample()`` receives *cumulative* counters (what the engines
    already maintain between the measurement boundary and the current
    quantum) and stores the delta since the previous sample.  Columns:

    * ``quantum`` — trace quantum index;
    * ``miss_local`` / ``miss_2hop`` / ``miss_3hop`` — L2 misses
      serviced from local memory, a remote home or owner with clean
      data (2 network hops), and a remote dirty third node (3 hops);
    * ``i_refs`` — instruction-line fetches (×
      :data:`~repro.params.INSTRS_PER_ILINE` = instructions, the MPKI
      denominator);
    * ``dir_lines`` — directory-tracked lines (a gauge, not a delta).
      The scalar loop reads the live directory; the staged
      pipeline reports its coherence-tracked lines, a lower bound on
      in-order RAC-free machines, whose private lines bypass the
      directory until the run materializes;
    * ``rac_probes`` / ``rac_hits`` — remote-access-cache activity.
    """

    DELTA_FIELDS = ("miss_local", "miss_2hop", "miss_3hop", "i_refs",
                    "rac_probes", "rac_hits")

    def __init__(self, meta: Optional[dict] = None):
        self.meta = dict(meta or {})
        self.quantum: List[int] = []
        self.miss_local: List[int] = []
        self.miss_2hop: List[int] = []
        self.miss_3hop: List[int] = []
        self.i_refs: List[int] = []
        self.dir_lines: List[int] = []
        self.rac_probes: List[int] = []
        self.rac_hits: List[int] = []
        self._prev = (0, 0, 0, 0, 0, 0)

    def sample(self, quantum: int, misses, i_refs: int, dir_lines: int,
               rac_probes: int = 0, rac_hits: int = 0) -> None:
        """Record one quantum from cumulative counters.

        ``misses`` is the live :class:`~repro.stats.breakdown.MissBreakdown`;
        instruction misses fold any remote service into I-Rem (code is
        read-only), so the 2-hop column carries ``i_remote`` whole.
        """
        local = misses.i_local + misses.d_local
        hop2 = misses.i_remote + misses.d_remote_clean
        hop3 = misses.d_remote_dirty
        p_local, p_hop2, p_hop3, p_iref, p_probe, p_hit = self._prev
        self.quantum.append(quantum)
        self.miss_local.append(local - p_local)
        self.miss_2hop.append(hop2 - p_hop2)
        self.miss_3hop.append(hop3 - p_hop3)
        self.i_refs.append(i_refs - p_iref)
        self.dir_lines.append(dir_lines)
        self.rac_probes.append(rac_probes - p_probe)
        self.rac_hits.append(rac_hits - p_hit)
        self._prev = (local, hop2, hop3, i_refs, rac_probes, rac_hits)

    # -- derived views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.quantum)

    @property
    def total_misses(self) -> int:
        return (sum(self.miss_local) + sum(self.miss_2hop)
                + sum(self.miss_3hop))

    @property
    def dirty_share(self) -> float:
        """3-hop share of all sampled misses (the paper's fig-9 axis)."""
        total = self.total_misses
        return sum(self.miss_3hop) / total if total else 0.0

    def mpki(self) -> List[float]:
        """Per-quantum L2 misses per thousand instructions."""
        out = []
        for local, hop2, hop3, irefs in zip(
                self.miss_local, self.miss_2hop, self.miss_3hop,
                self.i_refs):
            instr = irefs * INSTRS_PER_ILINE
            out.append(1000.0 * (local + hop2 + hop3) / instr if instr
                       else 0.0)
        return out

    def rac_hit_rate(self) -> List[float]:
        """Per-quantum RAC hit rate (0.0 where the RAC saw no probe)."""
        return [hits / probes if probes else 0.0
                for probes, hits in zip(self.rac_probes, self.rac_hits)]

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "quantum": self.quantum,
            "miss_local": self.miss_local,
            "miss_2hop": self.miss_2hop,
            "miss_3hop": self.miss_3hop,
            "i_refs": self.i_refs,
            "dir_lines": self.dir_lines,
            "rac_probes": self.rac_probes,
            "rac_hits": self.rac_hits,
            "l2_mpki": [round(v, 4) for v in self.mpki()],
            "rac_hit_rate": [round(v, 4) for v in self.rac_hit_rate()],
            "dirty_share": round(self.dirty_share, 6),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantumSeries":
        series = cls(data.get("meta"))
        series.quantum = list(data.get("quantum", ()))
        for field in cls.DELTA_FIELDS + ("dir_lines",):
            setattr(series, field, list(data.get(field, ())))
        return series


class MetricsRegistry:
    """Named instruments plus the per-run quantum series."""

    enabled = True

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}
        self.series: List[QuantumSeries] = []

    # -- instruments --------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = HistogramSummary()
        hist.observe(value)

    def new_series(self, **meta) -> QuantumSeries:
        """Open a per-quantum series for one simulation run."""
        series = QuantumSeries(meta)
        self.series.append(series)
        return series

    # -- serialization and merging -----------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_dict()
                for name, hist in self.histograms.items()
            },
            "series": [series.to_dict() for series in self.series],
        }

    def absorb(self, payload: dict) -> None:
        """Merge a registry serialized in another process (a worker)."""
        for name, value in payload.get("counters", {}).items():
            self.count(name, value)
        self.gauges.update(payload.get("gauges", {}))
        for name, data in payload.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = HistogramSummary()
            hist.merge_dict(data)
        self.series.extend(
            QuantumSeries.from_dict(d) for d in payload.get("series", ())
        )


class NullMetrics:
    """Metrics disabled: instruments discard, samplers are never built.

    Engines ask ``current_metrics().enabled`` once per run and keep
    ``None`` in place of a sampler, so the per-quantum paths pay one
    ``is not None`` test when metrics are off.
    """

    enabled = False

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def to_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}, "series": []}

    def absorb(self, payload: dict) -> None:
        pass


#: The process-wide disabled registry (the default).
NULL_METRICS = NullMetrics()

_current: "MetricsRegistry | NullMetrics" = NULL_METRICS


def current_metrics() -> "MetricsRegistry | NullMetrics":
    """The active registry; :data:`NULL_METRICS` unless one is installed."""
    return _current


@contextmanager
def use_metrics(
    registry: "MetricsRegistry | NullMetrics",
) -> Iterator["MetricsRegistry | NullMetrics"]:
    """Install ``registry`` as the process-wide metrics sink for the block."""
    global _current
    previous = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = previous

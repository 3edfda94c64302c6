"""Trace materialization: a bounded in-memory cache over on-disk archives.

Every simulation job names its workload by a :class:`TraceSpec` — the
exact arguments of :func:`repro.trace.generator.build_trace` — instead
of carrying the multi-megabyte trace object itself.  A
:class:`TraceStore` turns specs into traces through a single code path
shared by the experiment drivers, the campaign runner's worker
processes, and the tests:

1. a bounded LRU of in-memory :class:`~repro.trace.generator.OltpTrace`
   objects (the successor of the old unbounded module cache in
   ``repro.experiments.common``),
2. an optional spill directory of versioned, checksummed ``.npz``
   archives (:mod:`repro.trace.storage`), so a trace generated once —
   by any process — is never rebuilt, and
3. :func:`~repro.trace.generator.build_trace` as the miss path.

Archives that fail their checksum or carry an unreadable format are
silently rebuilt; corruption can cost time, never correctness.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.scenario.workload import BASELINE_WORKLOAD, WorkloadSpec
from repro.trace.generator import OltpTrace, build_trace, stream_trace
from repro.trace.storage import (
    FORMAT_VERSION,
    STREAM_FORMAT_VERSION,
    ChunkedTraceWriter,
    load_trace,
    open_stream_archive,
    save_trace_atomic,
)
from repro.trace.stream import StreamedTrace

#: Default number of in-memory traces a store keeps (a full campaign
#: alternates between the uniprocessor and 8-CPU workloads, plus a few
#: ablation-specific ones).
DEFAULT_CAPACITY = 6


@dataclass(frozen=True)
class TraceSpec:
    """The generator arguments that determine one workload trace.

    ``build_trace`` is deterministic in these fields, so a spec is both
    a cache key and a recipe: any process holding the spec can
    materialize the identical trace.  ``warmup_txns=None`` selects the
    generator's steady-state default.
    """

    ncpus: int
    scale: int
    txns: int
    seed: int
    warmup_txns: Optional[int] = None
    workload: WorkloadSpec = BASELINE_WORKLOAD

    @property
    def key(self) -> str:
        """Stable human-readable identity, used in archive filenames.

        The baseline workload contributes nothing to the key (its
        ``tag`` is empty), so archives spilled before the scenario
        subsystem keep hitting; non-baseline workloads append their
        content-derived tag.
        """
        base = f"n{self.ncpus}_s{self.scale}_t{self.txns}_seed{self.seed}"
        if self.warmup_txns is not None:
            base += f"_w{self.warmup_txns}"
        tag = self.workload.tag
        if tag:
            base += f"_wl{tag}"
        return base

    @property
    def archive_name(self) -> str:
        """Spill filename; includes the archive format version so a
        format bump naturally invalidates old spills."""
        return f"trace_{self.key}_fmt{FORMAT_VERSION}.npz"

    @property
    def stream_archive_name(self) -> str:
        """Chunked-archive spill filename (streaming store)."""
        return f"strace_{self.key}_sfmt{STREAM_FORMAT_VERSION}.npz"

    def to_dict(self) -> dict:
        return {
            "ncpus": self.ncpus,
            "scale": self.scale,
            "txns": self.txns,
            "seed": self.seed,
            "warmup_txns": self.warmup_txns,
            "workload": self.workload.to_dict(),
        }

    def build(self) -> OltpTrace:
        """Run the OLTP engine and generate this trace from scratch."""
        return build_trace(
            ncpus=self.ncpus,
            scale=self.scale,
            txns=self.txns,
            warmup_txns=self.warmup_txns,
            seed=self.seed,
            workload=self.workload,
        )


@dataclass
class TraceStoreStats:
    """Where the store's traces came from (telemetry, tests)."""

    memory_hits: int = 0
    archive_loads: int = 0
    builds: int = 0

    def reset(self) -> None:
        self.memory_hits = 0
        self.archive_loads = 0
        self.builds = 0


class TraceStore:
    """Bounded LRU trace cache with optional archive spill.

    ``capacity`` bounds the number of in-memory traces; the least
    recently used trace is dropped first (it remains reloadable from
    its archive when a spill directory is configured).  ``spill_dir``
    is created lazily on first write.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 spill_dir: Optional[str] = None):
        if capacity < 1:
            raise ValueError("TraceStore capacity must be at least 1")
        self.capacity = capacity
        self.spill_dir = spill_dir
        self.stats = TraceStoreStats()
        self._lru: "OrderedDict[TraceSpec, OltpTrace]" = OrderedDict()

    # -- internals -------------------------------------------------------------

    def _archive_path(self, spec: TraceSpec) -> Optional[str]:
        if not self.spill_dir:
            return None
        return os.path.join(self.spill_dir, spec.archive_name)

    def _spill(self, spec: TraceSpec, trace: OltpTrace) -> Optional[str]:
        path = self._archive_path(spec)
        if path is None:
            return None
        os.makedirs(self.spill_dir, exist_ok=True)
        save_trace_atomic(trace, path)
        return path

    def _load_archived(self, spec: TraceSpec) -> Optional[OltpTrace]:
        path = self._archive_path(spec)
        if path is None or not os.path.exists(path):
            return None
        from repro.integrity.errors import TraceFormatError

        try:
            return load_trace(path)
        except (TraceFormatError, OSError):
            # Corrupt or stale spill: drop it and fall through to a
            # rebuild.  Never let a bad cache file fail a run.
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _remember(self, spec: TraceSpec, trace: OltpTrace) -> None:
        self._lru[spec] = trace
        self._lru.move_to_end(spec)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    # -- public API ------------------------------------------------------------

    def get(self, spec: TraceSpec) -> OltpTrace:
        """Materialize the trace for ``spec`` (memory, archive, or build)."""
        trace = self._lru.get(spec)
        if trace is not None:
            self._lru.move_to_end(spec)
            self.stats.memory_hits += 1
            return trace
        trace = self._load_archived(spec)
        if trace is not None:
            self.stats.archive_loads += 1
        else:
            trace = spec.build()
            self.stats.builds += 1
            if self.spill_dir:
                self._spill(spec, trace)
        self._remember(spec, trace)
        return trace

    def is_archived(self, spec: TraceSpec) -> bool:
        """True when ``spec`` has an archive under ``spill_dir``."""
        path = self._archive_path(spec)
        return path is not None and os.path.exists(path)

    def ensure_archived(self, spec: TraceSpec) -> str:
        """Guarantee an on-disk archive for ``spec``; return its path.

        Used by the campaign runner before forking workers, so every
        worker loads the shared archive instead of re-running the
        workload generator.  Requires a configured ``spill_dir``.
        """
        if not self.spill_dir:
            raise ValueError("ensure_archived requires a spill_dir")
        path = self._archive_path(spec)
        assert path is not None
        if not os.path.exists(path):
            trace = self._lru.get(spec)
            if trace is None:
                trace = self.get(spec)  # builds and spills
            else:
                self._spill(spec, trace)
        return path

    def clear(self) -> None:
        """Drop every in-memory trace (archives are kept)."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, spec: TraceSpec) -> bool:
        return spec in self._lru


@dataclass
class StreamingStoreStats:
    """Where the streaming store's chunk streams came from.

    Counted once per :meth:`StreamingTraceStore.stream` call, never
    per chunk — so the numbers are invariant to the consumer's chunk
    size (a property the test suite pins down).
    """

    archive_streams: int = 0
    builds: int = 0
    spills: int = 0

    def reset(self) -> None:
        self.archive_streams = 0
        self.builds = 0
        self.spills = 0


class StreamingTraceStore:
    """Bounded-memory counterpart of :class:`TraceStore`.

    Where ``TraceStore.get`` materializes a whole
    :class:`~repro.trace.generator.OltpTrace`, :meth:`stream` returns
    a :class:`~repro.trace.stream.StreamedTrace` whose peak memory is
    one chunk, regardless of workload length:

    1. an existing *chunked* archive (``strace_*.npz``) streams back
       chunk-by-chunk — ``np.load`` decompresses one zip member at a
       time;
    2. on a miss the live generator streams, and when a ``spill_dir``
       is configured every chunk is teed into a
       :class:`~repro.trace.storage.ChunkedTraceWriter` on its way to
       the consumer, so the archive appears as a side effect of the
       first replay — no second pass, no full materialization, and an
       interrupted run leaves no partial archive (atomic rename).

    ``chunk_txns`` sets the generation batch; ``chunk_quanta`` (per
    call) re-slices whatever the producer emits, letting consumers
    pick their replay granularity independently of how the archive was
    written.
    """

    def __init__(self, spill_dir: Optional[str] = None,
                 chunk_txns: Optional[int] = None):
        self.spill_dir = spill_dir
        self.chunk_txns = chunk_txns
        self.stats = StreamingStoreStats()

    def _archive_path(self, spec: TraceSpec) -> Optional[str]:
        if not self.spill_dir:
            return None
        return os.path.join(self.spill_dir, spec.stream_archive_name)

    def stream(self, spec: TraceSpec,
               chunk_quanta: Optional[int] = None) -> StreamedTrace:
        """A fresh chunk stream for ``spec`` (archive or live build)."""
        from repro.integrity.errors import TraceFormatError
        from repro.obs import current_metrics

        path = self._archive_path(spec)
        if path is not None and os.path.exists(path):
            try:
                streamed = open_stream_archive(path)
            except (TraceFormatError, OSError):
                # Corrupt or stale spill: drop it and rebuild, the
                # same fail-soft contract as TraceStore.
                try:
                    os.unlink(path)
                except OSError:
                    pass
            else:
                self.stats.archive_streams += 1
                current_metrics().count("stream.archive_streams")
                if chunk_quanta:
                    streamed.rechunk(chunk_quanta)
                return streamed

        streamed = stream_trace(
            ncpus=spec.ncpus,
            scale=spec.scale,
            txns=spec.txns,
            warmup_txns=spec.warmup_txns,
            seed=spec.seed,
            chunk_txns=self.chunk_txns,
            workload=spec.workload,
        )
        self.stats.builds += 1
        current_metrics().count("stream.builds")
        if path is not None:
            writer = ChunkedTraceWriter(path)
            self.stats.spills += 1

            def finish(stream):
                writer.finish(stream)
                current_metrics().count("stream.spills")

            streamed.tee(writer.add_chunk, finish=finish, abort=writer.abort)
        if chunk_quanta:
            streamed.rechunk(chunk_quanta)
        return streamed

    def ensure_archived(self, spec: TraceSpec) -> str:
        """Guarantee a chunked archive for ``spec``; return its path.

        Consumes (and discards) a full stream on a miss — still at
        bounded memory — and verifies an existing archive's header.
        """
        if not self.spill_dir:
            raise ValueError("ensure_archived requires a spill_dir")
        path = self._archive_path(spec)
        assert path is not None
        if not os.path.exists(path):
            for _ in self.stream(spec).chunks():
                pass
        return path


#: Process-wide default store.  The experiment drivers' ``get_trace``
#: resolves through it; campaign worker processes configure its spill
#: directory at pool start so both sides share one code path.
_DEFAULT_STORE = TraceStore()


def default_trace_store() -> TraceStore:
    """The process-wide :class:`TraceStore`."""
    return _DEFAULT_STORE

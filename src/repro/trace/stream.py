"""Streaming trace pipeline: quantum-aligned chunks, bounded memory.

The materialized :class:`~repro.trace.generator.OltpTrace` caps
workload size at whatever fits in RAM.  This module is the seam that
removes the cap: a :class:`StreamedTrace` carries the same metadata as
a materialized trace but delivers its quanta through a single-use
iterator of :class:`TraceChunk` objects, so the producer (the live
workload generator, or a chunked archive) and the consumer (a replay
engine) each hold only one chunk at a time.

Three invariants make streams interchangeable with materialized
traces:

* **Quantum alignment** — a chunk boundary never splits a quantum;
  concatenating every chunk's quanta reconstructs the materialized
  trace exactly (tests/trace/test_stream_properties.py).
* **Warmup visibility** — ``warmup_quanta`` may be unknown (``None``)
  while the stream is still inside warmup, but the producer always
  publishes it *before* yielding the chunk that contains the boundary
  quantum, so engines that re-read it at every chunk cross the
  measurement boundary at exactly the same reference as the
  materialized replay.
* **Counted consumption** — the stream validates and counts quanta and
  references as they pass through, so end-of-run accounting
  (``measured_refs``) and the materialized-trace validation errors
  (empty trace, no measured quanta, out-of-range CPU) are preserved.

Engines do not special-case trace types: :func:`iter_chunks` presents
a materialized trace as one zero-copy chunk and a stream as itself.

:func:`iter_quanta` is also the scalar loop's one decode point: it
hands it each quantum as a :class:`DecodedQuantum`, its packed
references split by numpy into line and flag lists and counted.  It
decodes one quantum at a time, so the decoded copy never holds more
than one quantum.

Bounded memory holds for in-order replays: the scalar loop tallies
per-CPU counts and keep nothing per reference.  An out-of-order
replay keeps its ordered profile, one flag byte per reference plus
one record per L2 hit, service event and TLB walk, so it grows with
the stream; ``repro-oltp stream`` replays in-order.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.cpu.events import (
    FLAG_BITS,
    FLAG_INSTR,
    FLAG_KERNEL,
    FLAG_MASK,
    FLAG_WRITE,
)
from repro.integrity.errors import StateError, TraceMismatchError
from repro.trace.generator import OltpTrace, TraceQuantum

__all__ = [
    "DEFAULT_CHUNK_TXNS",
    "NEVER_WARMUP",
    "DecodedQuantum",
    "TraceChunk",
    "StreamedTrace",
    "iter_chunks",
    "iter_quanta",
    "is_streaming",
    "warmup_bound",
]

#: Default generation batch, in transactions, for :func:`stream_trace`
#: and the streaming store.  ~128 txns is a fraction of a megabyte of
#: packed references — small enough to keep RSS flat, large enough to
#: amortize the per-chunk bookkeeping.
DEFAULT_CHUNK_TXNS = 128

#: Sentinel for "warmup boundary not yet known": larger than any
#: quantum index, so ``qi == warmup`` never fires and ``qi >= warmup``
#: (measurement sampling) stays off until the boundary is published.
NEVER_WARMUP = 1 << 62


class TraceChunk:
    """A contiguous run of whole quanta, starting at global index ``start``."""

    __slots__ = ("start", "quanta")

    def __init__(self, start: int, quanta: List[TraceQuantum]):
        self.start = start
        self.quanta = quanta

    @property
    def refs(self) -> int:
        return sum(len(q.refs) for q in self.quanta)

    def __len__(self) -> int:
        return len(self.quanta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceChunk(start={self.start}, quanta={len(self.quanta)})"


#: Why a trace whose instruction fetch carries the write flag is refused.
WRITE_FETCH = ("the trace fetches an instruction with the write flag set; "
               "a trace may store only to data lines")


class DecodedQuantum:
    """One quantum's packed references, decoded in numpy for a scalar loop.

    ``lines`` and ``flags`` are plain lists (``ref >> 4``, ``ref & 15``)
    in reference order; ``refs`` counts the references, ``instr`` the
    instruction fetches, ``kinstr`` the kernel-mode ones among them and
    ``writes`` the data (non-fetch) references that carry the write
    flag.  An instruction fetch that carries it is no reference a
    machine can replay: it raises :class:`TraceMismatchError`.
    """

    __slots__ = ("cpu", "lines", "flags", "refs", "instr", "kinstr",
                 "writes")

    def __init__(self, quantum: TraceQuantum):
        refs = np.asarray(quantum.refs, dtype=np.int64)
        flags = refs & FLAG_MASK
        # How many references carry each kernel/fetch/write combination.
        kinds = np.bincount(flags & (FLAG_KERNEL | FLAG_INSTR | FLAG_WRITE),
                            minlength=8).tolist()
        if (kinds[FLAG_INSTR | FLAG_WRITE]
                or kinds[FLAG_KERNEL | FLAG_INSTR | FLAG_WRITE]):
            raise TraceMismatchError(WRITE_FETCH)
        self.cpu = quantum.cpu
        self.lines = (refs >> FLAG_BITS).tolist()
        self.flags = flags.tolist()
        self.refs = len(refs)
        self.kinstr = kinds[FLAG_KERNEL | FLAG_INSTR]
        self.instr = kinds[FLAG_INSTR] + self.kinstr
        self.writes = kinds[FLAG_WRITE] + kinds[FLAG_KERNEL | FLAG_WRITE]


def is_streaming(trace) -> bool:
    """True when ``trace`` delivers its quanta through a chunk stream."""
    return getattr(trace, "streaming", False)


def warmup_bound(trace) -> int:
    """The warmup boundary as an engine-comparable quantum index.

    ``None`` (boundary not yet produced) maps to :data:`NEVER_WARMUP`;
    engines re-read this at every chunk, so the boundary is always
    known by the time the chunk containing it replays.
    """
    warmup = trace.warmup_quanta
    return NEVER_WARMUP if warmup is None else warmup


class StreamedTrace:
    """A chunked, single-consumption view of an OLTP trace.

    Metadata (``ncpus``, ``page_bytes``, ``text_pages``, …) mirrors
    :class:`~repro.trace.generator.OltpTrace` and is available before
    consumption; ``warmup_quanta`` and ``engine_stats`` may start as
    ``None`` on a live generator stream and are filled in by the
    producer as the stream advances (see the module docstring for the
    warmup-visibility contract).

    The chunk iterator is consumed exactly once — replaying a stream
    twice requires re-creating it — and validates as it goes:
    out-of-range CPUs, non-contiguous chunks, empty streams and
    all-warmup streams raise the same
    :class:`~repro.integrity.errors.TraceMismatchError` family the
    materialized validation does.
    """

    streaming = True

    def __init__(self, *, ncpus, scale, page_bytes, text_pages,
                 measured_txns, config, chunks: Iterable[TraceChunk],
                 warmup_quanta: Optional[int] = None,
                 engine_stats=None, num_quanta: Optional[int] = None):
        self.ncpus = ncpus
        self.scale = scale
        self.page_bytes = page_bytes
        self.text_pages = text_pages
        self.measured_txns = measured_txns
        self.config = config
        self.warmup_quanta = warmup_quanta
        self.engine_stats = engine_stats
        self.num_quanta = num_quanta
        self._chunks = iter(chunks)
        self._consumed = False
        # Filled while the stream is consumed.
        self.quanta_seen = 0
        self.refs_seen = 0
        self.measured_refs_seen = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: OltpTrace,
                   chunk_quanta: Optional[int] = None) -> "StreamedTrace":
        """Chunked view of a materialized trace (zero-copy quantum slices).

        ``chunk_quanta=None`` yields the whole trace as one chunk; any
        positive value slices it into runs of that many quanta.  Used
        by the differential tests to replay every engine through the
        chunked path against a known materialized baseline.
        """
        n = len(trace.quanta)
        step = n if not chunk_quanta else max(1, int(chunk_quanta))

        def produce() -> Iterator[TraceChunk]:
            for start in range(0, n, step):
                yield TraceChunk(start, trace.quanta[start:start + step])

        return cls(
            ncpus=trace.ncpus,
            scale=trace.scale,
            page_bytes=trace.page_bytes,
            text_pages=trace.text_pages,
            measured_txns=trace.measured_txns,
            config=trace.config,
            engine_stats=trace.engine_stats,
            warmup_quanta=trace.warmup_quanta,
            num_quanta=n,
            chunks=produce(),
        )

    # -- consumption -----------------------------------------------------------

    @property
    def consumed(self) -> bool:
        return self._consumed

    @property
    def total_refs(self) -> int:
        return self.refs_seen

    @property
    def measured_refs(self) -> int:
        return self.measured_refs_seen

    def chunks(self) -> Iterator[TraceChunk]:
        """The validating chunk iterator; callable exactly once."""
        if self._consumed:
            raise StateError(
                "a StreamedTrace is single-consumption; re-create the "
                "stream to replay it again"
            )
        self._consumed = True
        return self._consume()

    def _consume(self) -> Iterator[TraceChunk]:
        try:
            yield from self._validate()
        finally:
            # A consumer that stops early (close, an exception, an
            # interrupt) ends the producer chain now, so its clean-up
            # (an archive tee's abort, a producer process's reaping)
            # does not wait for the stream to be collected.
            close = getattr(self._chunks, "close", None)
            if close is not None:
                close()

    def _validate(self) -> Iterator[TraceChunk]:
        ncpus = self.ncpus
        expected = 0
        for chunk in self._chunks:
            if chunk.start != expected:
                raise StateError(
                    f"stream chunk starts at quantum {chunk.start}, "
                    f"expected {expected}; the producer broke chunk "
                    "contiguity"
                )
            refs = 0
            for q in chunk.quanta:
                if not 0 <= q.cpu < ncpus:
                    raise TraceMismatchError(
                        f"trace schedules CPU {q.cpu}, but the trace "
                        f"declares CPUs 0..{ncpus - 1}"
                    )
                refs += len(q.refs)
            n = len(chunk.quanta)
            warmup = self.warmup_quanta
            if warmup is not None and warmup < expected + n:
                if warmup <= expected:
                    self.measured_refs_seen += refs
                else:
                    self.measured_refs_seen += sum(
                        len(q.refs) for q in chunk.quanta[warmup - expected:]
                    )
            expected += n
            self.quanta_seen += n
            self.refs_seen += refs
            yield chunk

        if self.num_quanta is not None and expected != self.num_quanta:
            raise StateError(
                f"stream ended after {expected} quanta but declared "
                f"{self.num_quanta}; the producer is truncated"
            )
        self.num_quanta = expected
        if self.warmup_quanta is None:
            # Producer never crossed the boundary: mirror the
            # materialized builder, which finalizes warmup to 0.
            self.warmup_quanta = 0
            self.measured_refs_seen = self.refs_seen
        if expected == 0:
            raise TraceMismatchError(
                "trace has no scheduling quanta; nothing to replay"
            )
        if not 0 <= self.warmup_quanta < expected:
            raise TraceMismatchError(
                f"warmup_quanta={self.warmup_quanta} leaves no measured "
                f"quanta (trace has {expected}); lower the warmup or "
                "lengthen the trace"
            )

    def collect(self) -> OltpTrace:
        """Materialize the remaining stream into an ``OltpTrace``.

        The vectorized engines' structural algorithms (global argsort
        runs, the sharing census) need the whole reference stream at
        once; ``System`` accepts a chunk iterator for them by
        collecting it here.  Consumes the stream.
        """
        from repro.oltp.engine import EngineStats

        quanta: List[TraceQuantum] = []
        for chunk in self.chunks():
            quanta.extend(chunk.quanta)
        return OltpTrace(
            ncpus=self.ncpus,
            scale=self.scale,
            page_bytes=self.page_bytes,
            text_pages=self.text_pages,
            quanta=quanta,
            warmup_quanta=self.warmup_quanta,
            measured_txns=self.measured_txns,
            engine_stats=self.engine_stats or EngineStats(),
            config=self.config,
        )

    # -- producer-side adapters ------------------------------------------------

    def tee(self, sink: Callable[[TraceChunk], None],
            finish: Optional[Callable[["StreamedTrace"], None]] = None,
            abort: Optional[Callable[[], None]] = None) -> "StreamedTrace":
        """Pass every produced chunk to ``sink`` on its way downstream.

        ``finish`` fires after the producer is exhausted (metadata such
        as ``warmup_quanta`` and ``engine_stats`` is final by then);
        ``abort`` fires if production or consumption dies mid-stream.
        The streaming store uses this to spill an archive while the
        first consumer replays, without a second pass.
        """
        if self._consumed:
            raise StateError("cannot tee a consumed stream")
        inner = self._chunks

        def produce() -> Iterator[TraceChunk]:
            try:
                for chunk in inner:
                    sink(chunk)
                    yield chunk
            except BaseException:
                if abort is not None:
                    abort()
                raise
            else:
                if finish is not None:
                    finish(self)

        self._chunks = produce()
        return self

    def rechunk(self, chunk_quanta: int) -> "StreamedTrace":
        """Re-slice the stream into chunks of ``chunk_quanta`` quanta.

        Quanta are only ever regrouped — never split or reordered — so
        the warmup-visibility contract is preserved (a regrouped chunk
        yields no earlier than the producer chunk it came from).
        Memory stays bounded by one producer chunk plus one output
        chunk.
        """
        if self._consumed:
            raise StateError("cannot rechunk a consumed stream")
        step = max(1, int(chunk_quanta))
        inner = self._chunks

        def produce() -> Iterator[TraceChunk]:
            buf: List[TraceQuantum] = []
            start = 0
            for chunk in inner:
                buf.extend(chunk.quanta)
                while len(buf) >= step:
                    yield TraceChunk(start, buf[:step])
                    start += step
                    buf = buf[step:]
            if buf:
                yield TraceChunk(start, buf)

        self._chunks = produce()
        return self


def iter_chunks(trace) -> Iterator[TraceChunk]:
    """Uniform chunk iteration over materialized and streamed traces.

    A materialized :class:`OltpTrace` becomes a single zero-copy chunk
    (the engines' historical whole-trace behaviour); a
    :class:`StreamedTrace` is consumed through its validating iterator.
    """
    if is_streaming(trace):
        return trace.chunks()
    return iter((TraceChunk(0, trace.quanta),))


def iter_quanta(trace) -> Iterator[
        Tuple[int, DecodedQuantum, bool, bool]]:
    """Flat per-quantum replay iteration for the scalar loop.

    Yields ``(qi, quantum, at_boundary, measured)``, ``quantum`` a
    :class:`DecodedQuantum` decoded as it is reached: ``at_boundary``
    is True exactly once, at the quantum where the warmup/measurement
    boundary must be crossed, and ``measured`` is True from that
    quantum on — both already normalized against a stream's
    late-arriving ``warmup_quanta``, so the engine loops carry no
    warmup bookkeeping of their own.

    On a streamed trace every chunk additionally emits a
    ``stream.chunk`` observability span (engine ``"fast"``, chunk
    index, quanta, references) when tracing is enabled.
    """
    if not is_streaming(trace):
        warmup = trace.warmup_quanta
        for qi, quantum in enumerate(trace.quanta):
            yield qi, DecodedQuantum(quantum), qi == warmup, qi >= warmup
        return

    from repro.obs import current_tracer

    tracer = current_tracer()
    spans = tracer.enabled
    qi = 0
    for ci, chunk in enumerate(trace.chunks()):
        t0 = time.perf_counter() if spans else 0.0
        # The producer publishes the boundary before yielding the
        # chunk that contains it, so one re-read per chunk is exact.
        warmup = warmup_bound(trace)
        for quantum in chunk.quanta:
            yield qi, DecodedQuantum(quantum), qi == warmup, qi >= warmup
            qi += 1
        if spans:
            tracer.add_span(
                "stream.chunk", t0, time.perf_counter() - t0,
                engine="fast", chunk=ci, start=chunk.start,
                quanta=len(chunk.quanta), refs=chunk.refs,
            )

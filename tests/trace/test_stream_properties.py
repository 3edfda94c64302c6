"""Property suite for the streaming trace pipeline.

The replay engines' streamed results are bit-identical to their
materialized results only if three producer-side invariants hold; this
suite pins each one directly:

* **quantum alignment** — a chunk boundary never splits a quantum, and
  concatenating every chunk's quanta reconstructs the materialized
  trace exactly (same CPUs, same packed reference arrays, in order);
* **warmup visibility** — by the time the chunk containing the
  warmup/measurement boundary is yielded, ``warmup_quanta`` is
  published and final, so a consumer re-reading it per chunk crosses
  the boundary at the exact same reference as a materialized replay;
* **stat invariance** — :class:`StreamingTraceStore` counts stream
  origins per ``stream()`` call, never per chunk, so its stats are
  invariant to whatever chunk size a consumer picks;
* **one decode** — the :class:`DecodedQuantum` that ``iter_quanta``
  hands the scalar engines carries exactly the lines, flags and counts
  a per-reference decode gives, materialized or streamed.

``stream_trace`` itself is checked for full equality against
``build_trace`` — same workload engine, same seeds, so the streamed
chunks must concatenate to the identical trace, warmup boundary and
engine statistics included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.events import FLAG_INSTR, FLAG_KERNEL, FLAG_WRITE, encode
from repro.integrity.errors import StateError, TraceMismatchError
from repro.trace.generator import build_trace, stream_trace
from repro.trace.stream import (
    NEVER_WARMUP,
    DecodedQuantum,
    StreamedTrace,
    TraceChunk,
    iter_chunks,
    iter_quanta,
    is_streaming,
    warmup_bound,
)
from repro.trace.synthetic import make_trace

# One real OLTP workload, built once: small enough for a test module,
# large enough for many quanta per chunk-size probe.
WORKLOAD = dict(ncpus=2, scale=256, txns=12, seed=5)


@pytest.fixture(scope="module")
def reference():
    return build_trace(**WORKLOAD)


def drain(trace):
    """Consume a stream; return its chunks."""
    return list(trace.chunks())


def synthetic(seed, nquanta, ncpus=2, warmup=0):
    rng = random.Random(seed)
    quanta = []
    for _ in range(nquanta):
        refs = [
            encode(rng.randrange(200), write=rng.random() < 0.3)
            for _ in range(rng.randint(1, 8))
        ]
        quanta.append((rng.randrange(ncpus), refs))
    return make_trace(ncpus, quanta, warmup_quanta=warmup)


def assert_same_quanta(chunks, trace):
    """Chunk concatenation reconstructs the trace's quanta exactly."""
    flat = [q for c in chunks for q in c.quanta]
    assert len(flat) == len(trace.quanta)
    for got, want in zip(flat, trace.quanta):
        assert got.cpu == want.cpu
        assert list(got.refs) == list(want.refs)


class TestChunkAlignment:
    @settings(max_examples=40, deadline=None)
    @given(nquanta=st.integers(min_value=1, max_value=40),
           chunk=st.integers(min_value=1, max_value=50),
           seed=st.integers(min_value=0, max_value=999))
    def test_from_trace_reconstructs_exactly(self, nquanta, chunk, seed):
        trace = synthetic(seed, nquanta)
        chunks = drain(StreamedTrace.from_trace(trace, chunk))
        # Contiguous, quantum-aligned chunk starts of the chosen size.
        pos = 0
        for c in chunks:
            assert c.start == pos
            assert len(c) <= chunk
            pos += len(c)
        assert all(len(c) == chunk for c in chunks[:-1])
        assert_same_quanta(chunks, trace)

    @settings(max_examples=40, deadline=None)
    @given(nquanta=st.integers(min_value=1, max_value=40),
           produce=st.integers(min_value=1, max_value=9),
           rechunk=st.integers(min_value=1, max_value=50),
           seed=st.integers(min_value=0, max_value=999))
    def test_rechunk_regroups_without_splitting(self, nquanta, produce,
                                                rechunk, seed):
        trace = synthetic(seed, nquanta)
        stream = StreamedTrace.from_trace(trace, produce).rechunk(rechunk)
        chunks = drain(stream)
        pos = 0
        for c in chunks:
            assert c.start == pos
            pos += len(c)
        assert all(len(c) == rechunk for c in chunks[:-1])
        assert chunks[-1].quanta
        assert_same_quanta(chunks, trace)

    def test_whole_trace_is_one_chunk(self):
        trace = synthetic(1, 17)
        chunks = drain(StreamedTrace.from_trace(trace))
        assert len(chunks) == 1
        assert chunks[0].start == 0
        assert_same_quanta(chunks, trace)

    def test_iter_chunks_on_materialized_is_zero_copy(self):
        trace = synthetic(2, 5)
        (chunk,) = iter_chunks(trace)
        assert chunk.quanta is trace.quanta

    @settings(max_examples=25, deadline=None)
    @given(nquanta=st.integers(min_value=1, max_value=30),
           chunk=st.integers(min_value=1, max_value=12),
           warmup=st.integers(min_value=0, max_value=29),
           seed=st.integers(min_value=0, max_value=999))
    def test_iter_quanta_matches_materialized(self, nquanta, chunk,
                                              warmup, seed):
        if warmup >= nquanta:
            warmup = nquanta - 1
        trace = synthetic(seed, nquanta, warmup=warmup)
        base = list(iter_quanta(trace))
        streamed = list(iter_quanta(StreamedTrace.from_trace(trace, chunk)))
        assert [(qi, b, m) for qi, _, b, m in base] == \
               [(qi, b, m) for qi, _, b, m in streamed]


def per_reference_decode(quantum):
    """The reference decode: bit arithmetic, one reference at a time."""
    flags = [ref & 15 for ref in quantum.refs]
    return {
        "cpu": quantum.cpu,
        "lines": [ref >> 4 for ref in quantum.refs],
        "flags": flags,
        "refs": len(quantum.refs),
        "instr": sum(1 for f in flags if f & FLAG_INSTR),
        "kinstr": sum(1 for f in flags
                      if f & FLAG_INSTR and f & FLAG_KERNEL),
        "writes": sum(1 for f in flags
                      if not f & FLAG_INSTR and f & FLAG_WRITE),
    }


def decoded_fields(quantum: DecodedQuantum):
    return {name: getattr(quantum, name) for name in DecodedQuantum.__slots__}


#: Quanta over every flag combination a trace may carry (all but an
#: instruction fetch with the write flag) and lines up to 2**40; empty
#: quanta included.
QUANTA = st.lists(
    st.tuples(st.integers(0, 2),
              st.lists(st.tuples(st.integers(0, 1 << 40),
                                 st.sampled_from([f for f in range(16)
                                                  if f & 3 != 3])),
                       max_size=12)),
    min_size=1, max_size=20,
)


class TestDecode:
    @settings(max_examples=40, deadline=None)
    @given(quanta=QUANTA, chunk=st.integers(min_value=1, max_value=25),
           warmup=st.integers(min_value=0, max_value=19))
    def test_decode_equals_per_reference(self, quanta, chunk, warmup):
        trace = make_trace(3, [(cpu, [line << 4 | f for line, f in refs])
                               for cpu, refs in quanta],
                           warmup_quanta=min(warmup, len(quanta) - 1))
        want = [per_reference_decode(q) for q in trace.quanta]
        for source in (trace, StreamedTrace.from_trace(trace, chunk)):
            decoded = [q for _, q, _, _ in iter_quanta(source)]
            assert [decoded_fields(q) for q in decoded] == want
            # Plain Python ints, as the loops' set and dict keys expect.
            assert all(type(v) is int
                       for q in decoded for v in q.lines + q.flags)

    @pytest.mark.parametrize("flags", [3, 7, 11, 15])
    def test_a_write_fetch_is_refused(self, flags):
        trace = make_trace(1, [(0, [5 << 4]), (0, [9 << 4 | flags])])
        decoded = iter_quanta(trace)
        next(decoded)
        with pytest.raises(TraceMismatchError, match="write flag"):
            next(decoded)

    def test_live_stream_decodes_like_the_built_trace(self, reference):
        want = [per_reference_decode(q) for q in reference.quanta]
        stream = stream_trace(**WORKLOAD, chunk_txns=3)
        got = [decoded_fields(q) for _, q, _, _ in iter_quanta(stream)]
        assert got == want


class TestGeneratorStream:
    def test_stream_equals_build(self, reference):
        streamed = stream_trace(**WORKLOAD, chunk_txns=3)
        chunks = drain(streamed)
        assert_same_quanta(chunks, reference)
        assert streamed.warmup_quanta == reference.warmup_quanta
        assert streamed.engine_stats == reference.engine_stats
        assert streamed.text_pages == reference.text_pages
        assert streamed.measured_txns == reference.measured_txns
        assert streamed.page_bytes == reference.page_bytes
        assert streamed.num_quanta == len(reference.quanta)
        assert streamed.refs_seen == sum(
            len(q.refs) for q in reference.quanta)
        assert streamed.measured_refs == reference.measured_refs

    @pytest.mark.parametrize("chunk_txns", [1, 7, 10_000])
    def test_stream_chunk_size_invariant(self, chunk_txns, reference):
        chunks = drain(stream_trace(**WORKLOAD, chunk_txns=chunk_txns))
        assert_same_quanta(chunks, reference)

    def test_warmup_published_before_boundary_chunk(self, reference):
        """The warmup-visibility contract, observed chunk by chunk."""
        final = reference.warmup_quanta
        assert final > 0
        streamed = stream_trace(**WORKLOAD, chunk_txns=2)
        saw_boundary = False
        for chunk in streamed.chunks():
            if chunk.start + len(chunk) > final:
                # This chunk contains (or follows) the boundary: the
                # producer must already have published the final value.
                assert streamed.warmup_quanta == final
                saw_boundary = True
            elif streamed.warmup_quanta is not None:
                # Early publication is allowed only if already final.
                assert streamed.warmup_quanta == final
        assert saw_boundary

    def test_collect_materializes_equal_trace(self, reference):
        collected = stream_trace(**WORKLOAD, chunk_txns=4).collect()
        assert collected.warmup_quanta == reference.warmup_quanta
        assert collected.engine_stats == reference.engine_stats
        assert len(collected.quanta) == len(reference.quanta)
        for got, want in zip(collected.quanta, reference.quanta):
            assert got.cpu == want.cpu
            assert list(got.refs) == list(want.refs)


class TestStreamValidation:
    def test_single_use(self):
        stream = StreamedTrace.from_trace(synthetic(3, 6), 2)
        drain(stream)
        with pytest.raises(StateError):
            stream.chunks()

    def test_empty_stream_rejected(self):
        stream = StreamedTrace.from_trace(synthetic(3, 6), 2)
        stream._chunks = iter(())
        stream.num_quanta = None  # undeclared length, like a live stream
        with pytest.raises(TraceMismatchError):
            drain(stream)

    def test_non_contiguous_chunks_rejected(self):
        trace = synthetic(3, 6)
        stream = StreamedTrace.from_trace(trace, 2)
        stream._chunks = iter([TraceChunk(1, trace.quanta[1:])])
        with pytest.raises(StateError):
            drain(stream)

    def test_out_of_range_cpu_rejected(self):
        trace = synthetic(3, 6, ncpus=4)
        stream = StreamedTrace.from_trace(trace, 2)
        stream.ncpus = 2  # declare fewer CPUs than the quanta use
        with pytest.raises(TraceMismatchError):
            drain(stream)

    def test_truncated_stream_rejected(self):
        trace = synthetic(3, 6)
        stream = StreamedTrace.from_trace(trace, 2)
        stream.num_quanta = 7
        with pytest.raises(StateError):
            drain(stream)

    def test_all_warmup_rejected(self):
        trace = synthetic(3, 6)
        stream = StreamedTrace.from_trace(trace, 2)
        stream.warmup_quanta = 6
        with pytest.raises(TraceMismatchError):
            drain(stream)

    def test_none_warmup_finalizes_to_zero(self):
        stream = StreamedTrace.from_trace(synthetic(3, 6), 2)
        stream.warmup_quanta = None
        drain(stream)
        assert stream.warmup_quanta == 0
        assert stream.measured_refs == stream.refs_seen

    def test_warmup_bound_sentinel(self):
        stream = StreamedTrace.from_trace(synthetic(3, 6), 2)
        stream.warmup_quanta = None
        assert warmup_bound(stream) == NEVER_WARMUP
        stream.warmup_quanta = 4
        assert warmup_bound(stream) == 4

    def test_is_streaming(self):
        trace = synthetic(3, 6)
        assert not is_streaming(trace)
        assert is_streaming(StreamedTrace.from_trace(trace))

    def test_tee_and_rechunk_refuse_consumed_stream(self):
        stream = StreamedTrace.from_trace(synthetic(3, 6), 2)
        drain(stream)
        with pytest.raises(StateError):
            stream.tee(lambda c: None)
        with pytest.raises(StateError):
            stream.rechunk(3)

    def test_tee_sees_every_chunk_then_finish(self):
        trace = synthetic(3, 9)
        seen, done = [], []
        stream = StreamedTrace.from_trace(trace, 4).tee(
            seen.append, finish=done.append)
        chunks = drain(stream)
        assert seen == chunks
        assert done == [stream]

    def test_tee_abort_on_broken_producer(self):
        trace = synthetic(3, 6)
        aborted = []

        def broken():
            yield TraceChunk(0, trace.quanta[:2])
            raise RuntimeError("producer died")

        stream = StreamedTrace.from_trace(trace, 2)
        stream._chunks = broken()
        stream.tee(lambda c: None, abort=lambda: aborted.append(True))
        with pytest.raises(RuntimeError):
            drain(stream)
        assert aborted == [True]


class TestStreamingStoreStats:
    """Store-level invariant: stats count per stream() call, not per
    chunk, so they cannot depend on the consumer's chunk size."""

    def test_stats_invariant_to_chunk_size(self, tmp_path):
        from repro.runner.tracestore import StreamingTraceStore, TraceSpec

        spec = TraceSpec(ncpus=WORKLOAD["ncpus"], scale=WORKLOAD["scale"],
                         txns=WORKLOAD["txns"], seed=WORKLOAD["seed"])
        store = StreamingTraceStore(spill_dir=str(tmp_path))
        for _ in store.stream(spec).chunks():
            pass
        assert (store.stats.builds, store.stats.spills,
                store.stats.archive_streams) == (1, 1, 0)

        baseline = None
        for i, chunk_quanta in enumerate((1, 7, None), start=1):
            streamed = store.stream(spec, chunk_quanta=chunk_quanta)
            flat = [q for c in streamed.chunks() for q in c.quanta]
            sig = [(q.cpu, list(q.refs)) for q in flat]
            if baseline is None:
                baseline = sig
            else:
                assert sig == baseline
            assert (store.stats.builds, store.stats.spills,
                    store.stats.archive_streams) == (1, 1, i)

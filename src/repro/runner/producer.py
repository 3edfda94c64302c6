"""Live trace streams generated in a producer process.

A live :class:`~repro.trace.stream.StreamedTrace` couples two stages
that share nothing but a bounded chunk queue: the OLTP engine
generating references (:func:`~repro.trace.generator.stream_trace`)
and the replay engine consuming them.  Run in one thread, the consumer
waits for generation plus replay.  :func:`producer_stream` runs the
unchanged ``stream_trace`` in a child process instead and feeds its
chunks over a one-way pipe, so the parent replays chunk ``k`` while
the child generates chunk ``k + 1``.

The pipe carries, in order: the stream metadata, one message per
:class:`~repro.trace.stream.TraceChunk` together with the
``warmup_quanta`` in force when the producer yielded it, and an end
message with the final ``warmup_quanta``, the ``engine_stats`` and the
child's observability spans.  The consumer-side ``StreamedTrace``
validates and counts exactly as on an in-process stream, so the two
are interchangeable chunk for chunk.

* **Backpressure** — ``Connection.send`` blocks while the pipe is
  full, so the child runs at most about one chunk ahead and each
  process holds about one chunk: memory stays bounded.
* **Failures** — an exception in the child reaches the consumer with
  its type and message (its traceback chained as the cause); a child
  that dies without a word makes the consumer's read hit end-of-file,
  which raises :class:`~repro.integrity.errors.ReproError` instead of
  blocking.
* **Lifecycle** — the parent owns the child: it ignores SIGINT, and
  the parent terminates and reaps it when the stream ends, fails, is
  closed early or is dropped (a ``weakref.finalize`` covers a stream
  that is never iterated).
* **Observability** — when tracing is on the child records into a
  fresh :class:`~repro.obs.Tracer` and ships its spans at the end, as
  campaign workers do: ``trace.stream_setup`` and one
  ``trace.stream_produce`` span.  The parent's own ``trace.stream``
  span brackets the consumption, so ``trace.stream`` minus the
  ``stream.chunk`` replay spans is the time the consumer waited for
  chunks.
"""

from __future__ import annotations

import pickle
import signal
import traceback
import weakref
from typing import Optional

from repro.integrity.errors import ReproError
from repro.obs import NULL_TRACER, Tracer, current_tracer, use_tracer
from repro.trace.generator import stream_trace
from repro.trace.stream import StreamedTrace

__all__ = ["PRODUCE_SPAN", "producer_stream"]

#: Name of the child's production span.  ``stream_trace`` names it
#: ``trace.stream``; the child renames it before shipping so that name
#: stays the consumer's alone.
PRODUCE_SPAN = "trace.stream_produce"

#: Message kinds on the pipe (the metadata message is the first one).
_CHUNK, _END, _ERROR = "chunk", "end", "error"


class ProducerTraceback(Exception):
    """The producer child's formatted traceback, chained as the cause
    of the exception re-raised at the consumer."""

    def __str__(self) -> str:
        return "\n\n" + self.args[0]


def _shipped_spans(tracer) -> list:
    spans = tracer.to_dicts()
    for span in spans:
        if span["name"] == "trace.stream":
            span["name"] = PRODUCE_SPAN
    return spans


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a
    :class:`ReproError` naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")
    return exc


def _produce(reader, writer, spec, chunk_txns: Optional[int],
             traced: bool) -> None:
    """The child's body: stream ``spec`` into ``writer``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Without the inherited read end, a dead parent makes send() fail
    # with a broken pipe instead of blocking forever.
    reader.close()
    tracer = Tracer() if traced else NULL_TRACER
    try:
        with use_tracer(tracer):
            streamed = stream_trace(
                ncpus=spec.ncpus, scale=spec.scale, txns=spec.txns,
                warmup_txns=spec.warmup_txns, seed=spec.seed,
                chunk_txns=chunk_txns, workload=spec.workload,
            )
            writer.send(dict(
                ncpus=streamed.ncpus, scale=streamed.scale,
                page_bytes=streamed.page_bytes,
                text_pages=streamed.text_pages,
                measured_txns=streamed.measured_txns,
                config=streamed.config,
            ))
            for chunk in streamed.chunks():
                writer.send((_CHUNK, streamed.warmup_quanta, chunk))
        writer.send((_END, streamed.warmup_quanta, streamed.engine_stats,
                     _shipped_spans(tracer)))
    except BrokenPipeError:
        pass  # the consumer went away; nobody is listening
    except BaseException as exc:
        try:
            writer.send((_ERROR, _portable(exc), traceback.format_exc(),
                         _shipped_spans(tracer)))
        except OSError:
            pass
    finally:
        writer.close()


def _stop(proc, reader) -> None:
    """Close the pipe, end the child if it still runs, and reap it;
    safe to call repeatedly."""
    reader.close()
    if proc.exitcode is None:
        proc.terminate()
        proc.join()


def _receive(reader, proc):
    """The next message from the child; raises if the child died."""
    try:
        return reader.recv()
    except EOFError:
        proc.join(timeout=5.0)
        _stop(proc, reader)
        raise ReproError(
            f"the trace producer process (pid {proc.pid}) died with exit "
            f"code {proc.exitcode} before finishing its stream"
        ) from None


def _raise_remote(message) -> None:
    _, exc, text, spans = message
    current_tracer().absorb(spans)
    raise exc from ProducerTraceback(text)


def producer_stream(spec, chunk_txns: Optional[int] = None) -> StreamedTrace:
    """A live stream of ``spec`` generated by a producer process.

    ``spec`` is a :class:`~repro.runner.tracestore.TraceSpec`;
    ``chunk_txns`` is ``stream_trace``'s generation batch.  Blocks
    until the child has started its engine and sent the stream's
    metadata.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_produce, name="repro-trace-producer", daemon=True,
        args=(reader, writer, spec, chunk_txns, current_tracer().enabled),
    )
    proc.start()
    # The child holds the only write end now, so its death reads as
    # end-of-file here instead of a hang.
    writer.close()
    try:
        meta = _receive(reader, proc)
        if isinstance(meta, tuple):  # the set-up failed: an error message
            _raise_remote(meta)
    except BaseException:
        _stop(proc, reader)
        raise

    def chunks():
        tracer = current_tracer()
        try:
            with tracer.span("trace.stream", ncpus=spec.ncpus,
                             scale=spec.scale, txns=spec.txns,
                             seed=spec.seed):
                while True:
                    message = _receive(reader, proc)
                    kind = message[0]
                    if kind == _CHUNK:
                        # Published before the chunk is handed on, as
                        # the in-process producer does.
                        stream().warmup_quanta = message[1]
                        yield message[2]
                    elif kind == _END:
                        _, warmup, engine_stats, spans = message
                        stream().warmup_quanta = warmup
                        stream().engine_stats = engine_stats
                        tracer.absorb(spans)
                        proc.join()  # the child exits after its last send
                        return
                    else:
                        _raise_remote(message)
        finally:
            _stop(proc, reader)

    streamed = StreamedTrace(chunks=chunks(), **meta)
    # A weak reference: the chunk generator must not keep its own
    # stream alive, so dropping an unfinished stream frees (and closes)
    # the generator at once instead of at the next cycle collection.
    stream = weakref.ref(streamed)
    weakref.finalize(streamed, _stop, proc, reader)
    return streamed

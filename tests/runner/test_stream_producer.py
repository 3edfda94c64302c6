"""The live stream's producer process (``repro.runner.producer``).

``StreamingTraceStore.stream`` runs ``stream_trace`` in a child process
and reads its chunks over a pipe.  This suite pins the contract that
makes the move invisible to consumers:

* **parity** — chunk for chunk (starts, quanta, references, the
  ``warmup_quanta`` in force at each chunk, ``engine_stats``) the
  store's stream equals the in-process generator, and replays to the
  same ``RunResult``;
* **spill** — the consumer-side archive tee writes the same archive
  and still leaves nothing behind when the stream is aborted;
* **errors** — a producer exception reaches the consumer with its type
  and message, and a producer that dies raises instead of hanging;
* **cleanup** — no way of leaving a stream early leaves a producer
  process behind, and the producer prints no traceback.

The error cases patch the generator in the parent; the child inherits
the patch through ``fork``, so they skip where the platform has no
``fork``.
"""

import gc
import multiprocessing
import os
import signal
import threading
import zipfile

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import simulate
from repro.integrity.errors import ConfigError, ReproError
from repro.runner import producer
from repro.runner.tracestore import StreamingTraceStore, TraceSpec
from repro.trace.generator import build_trace, stream_trace
from repro.trace.storage import ChunkedTraceWriter
from repro.trace.stream import StreamedTrace

SPEC = TraceSpec(ncpus=2, scale=256, txns=12, seed=5)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the child inherits patched module state only through fork",
)


def local_stream(spec, chunk_txns=None):
    return stream_trace(ncpus=spec.ncpus, scale=spec.scale, txns=spec.txns,
                        warmup_txns=spec.warmup_txns, seed=spec.seed,
                        chunk_txns=chunk_txns, workload=spec.workload)


def transcript(streamed):
    """Everything a consumer can observe of a stream, chunk by chunk."""
    chunks = [(chunk.start, streamed.warmup_quanta,
               [(q.cpu, q.refs.tolist()) for q in chunk.quanta])
              for chunk in streamed.chunks()]
    return {
        "chunks": chunks,
        "warmup_quanta": streamed.warmup_quanta,
        "engine_stats": streamed.engine_stats,
        "counts": (streamed.quanta_seen, streamed.refs_seen,
                   streamed.measured_refs_seen, streamed.num_quanta),
        "meta": (streamed.ncpus, streamed.scale, streamed.page_bytes,
                 streamed.text_pages, streamed.measured_txns,
                 streamed.config),
    }


@pytest.fixture(autouse=True)
def no_stray_producers():
    yield
    gc.collect()
    assert multiprocessing.active_children() == []


def _broken_after(first_chunks, act):
    """A ``stream_trace`` stand-in whose producer calls ``act`` once
    ``first_chunks`` chunks are out."""
    def fake(**kwargs):
        trace = build_trace(**{k: v for k, v in kwargs.items()
                               if k != "chunk_txns"})
        streamed = StreamedTrace.from_trace(trace, chunk_quanta=4)
        sent = []

        def sink(chunk):
            if len(sent) == first_chunks:
                act()
            sent.append(chunk)

        return streamed.tee(sink)
    return fake


class TestParity:
    @pytest.mark.parametrize("chunk_txns", [1, 7, None])
    def test_chunk_for_chunk(self, chunk_txns):
        store = StreamingTraceStore(chunk_txns=chunk_txns)
        got = transcript(store.stream(SPEC))
        want = transcript(local_stream(SPEC, chunk_txns))
        assert got == want
        assert len(got["chunks"]) > (1 if chunk_txns is None else 5)

    def test_rechunk(self):
        got = transcript(StreamingTraceStore().stream(SPEC, chunk_quanta=5))
        want = transcript(local_stream(SPEC).rechunk(5))
        assert got == want
        assert {len(q) for _, _, q in got["chunks"][:-1]} == {5}

    @pytest.mark.parametrize("engine", ["fast", "auto"])
    def test_same_result(self, engine):
        machine = MachineConfig(label="producer", ncpus=SPEC.ncpus)
        got = simulate(machine, StreamingTraceStore(chunk_txns=7)
                       .stream(SPEC), engine=engine)
        want = simulate(machine, local_stream(SPEC, 7), engine=engine)
        assert got.to_dict() == want.to_dict()


def _members(path):
    with zipfile.ZipFile(path) as zf:
        return [(info.filename, zf.read(info)) for info in zf.infolist()]


class TestSpill:
    def test_archive_matches_local_tee(self, tmp_path):
        store = StreamingTraceStore(spill_dir=str(tmp_path / "store"),
                                    chunk_txns=7)
        for _ in store.stream(SPEC).chunks():
            pass
        spilled = os.path.join(store.spill_dir, SPEC.stream_archive_name)

        local = str(tmp_path / "local.npz")
        writer = ChunkedTraceWriter(local)
        streamed = local_stream(SPEC, 7).tee(
            writer.add_chunk, finish=writer.finish, abort=writer.abort)
        for _ in streamed.chunks():
            pass
        # Member for member, byte for byte (zip timestamps aside).
        assert _members(spilled) == _members(local)
        assert store.stats.spills == 1

    def test_abort_leaves_no_partial_archive(self, tmp_path):
        store = StreamingTraceStore(spill_dir=str(tmp_path), chunk_txns=1)
        streamed = store.stream(SPEC)
        chunks = streamed.chunks()
        next(chunks)
        next(chunks)
        chunks.close()
        assert os.listdir(tmp_path) == []
        # Closing reaps the producer; it does not wait for collection.
        assert multiprocessing.active_children() == []
        assert streamed.quanta_seen > 0


@needs_fork
class TestErrors:
    def test_exception_keeps_type_and_message(self, monkeypatch):
        def fail():
            raise ConfigError("producer gave up")

        monkeypatch.setattr(producer, "stream_trace", _broken_after(2, fail))
        streamed = StreamingTraceStore().stream(SPEC)
        seen = []
        with pytest.raises(ConfigError, match="producer gave up") as info:
            for chunk in streamed.chunks():
                seen.append(chunk)
        assert len(seen) == 2
        assert multiprocessing.active_children() == []
        assert isinstance(info.value.__cause__, producer.ProducerTraceback)
        assert "producer gave up" in str(info.value.__cause__)

    def test_setup_exception_raises_at_stream(self, monkeypatch):
        def fail(**kwargs):
            raise ValueError("no engine")

        monkeypatch.setattr(producer, "stream_trace", fail)
        with pytest.raises(ValueError, match="no engine"):
            StreamingTraceStore().stream(SPEC)

    def test_unpicklable_exception_keeps_its_name(self, monkeypatch):
        class Odd(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a}/{b}")

        def fail():
            raise Odd("left", "right")

        monkeypatch.setattr(producer, "stream_trace", _broken_after(0, fail))
        streamed = StreamingTraceStore().stream(SPEC)
        with pytest.raises(ReproError, match="Odd: left/right"):
            for _ in streamed.chunks():
                pass

    def test_killed_producer_raises_without_hanging(self, monkeypatch):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(producer, "stream_trace", _broken_after(1, die))
        streamed = StreamingTraceStore().stream(SPEC)
        outcome = []

        def consume():
            try:
                for _ in streamed.chunks():
                    pass
            except BaseException as exc:
                outcome.append(exc)

        reader = threading.Thread(target=consume, daemon=True)
        reader.start()
        reader.join(timeout=60)
        assert not reader.is_alive(), "consumer blocked on a dead producer"
        assert len(outcome) == 1 and isinstance(outcome[0], ReproError)
        assert "died" in str(outcome[0])
        assert str(-signal.SIGKILL) in str(outcome[0])


class TestCleanup:
    def test_never_iterated(self, capfd):
        streamed = StreamingTraceStore().stream(SPEC)
        assert len(multiprocessing.active_children()) == 1
        del streamed
        gc.collect()
        assert multiprocessing.active_children() == []
        assert "Traceback" not in capfd.readouterr().err

    def test_dropped_after_one_chunk(self, capfd):
        streamed = StreamingTraceStore(chunk_txns=1).stream(SPEC)
        chunks = streamed.chunks()
        next(chunks)
        del chunks, streamed
        gc.collect()
        assert multiprocessing.active_children() == []
        assert "Traceback" not in capfd.readouterr().err

    def test_keyboard_interrupt(self, capfd):
        streamed = StreamingTraceStore(chunk_txns=1).stream(SPEC)
        with pytest.raises(KeyboardInterrupt):
            for _ in streamed.chunks():
                raise KeyboardInterrupt
        assert multiprocessing.active_children() == []
        del streamed
        gc.collect()
        assert multiprocessing.active_children() == []
        assert "Traceback" not in capfd.readouterr().err

    def test_producer_ignores_sigint(self, capfd):
        streamed = StreamingTraceStore(chunk_txns=1).stream(SPEC)
        (child,) = multiprocessing.active_children()
        os.kill(child.pid, signal.SIGINT)
        assert transcript(streamed) == transcript(local_stream(SPEC, 1))
        assert child.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err

"""Trace builder: turns engine activity into a multi-CPU reference trace.

The :class:`TraceBuilder` is the real implementation of the engine's
tracer interface.  It expands each engine hook into virtual-line
references (packed integers; see :mod:`repro.cpu.events`), groups them
into *quanta* — one per process dispatch, tagged with the CPU the
process ran on, translated to physical lines in one step when the
quantum ends — and records the warmup boundary so the simulator can
reset statistics exactly where measurement begins, mirroring the
paper's warmup-then-measure protocol.

The result, an :class:`OltpTrace`, is machine-independent: the same
trace is replayed against every cache/integration configuration of an
experiment, which both matches trace-driven methodology and guarantees
all configurations see the identical workload.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.cpu.events import (
    FLAG_BITS,
    FLAG_DEPENDENT,
    FLAG_KERNEL,
    FLAG_WRITE,
)
from repro.oltp.config import WorkloadConfig
from repro.oltp.engine import EngineStats, OracleEngine
from repro.oltp.tracing import EngineTracer, ProcessContext
from repro.params import LINE_SHIFT
from repro.trace.address_space import MemoryModel
from repro.trace.codepath import LINE_STEP, CodeModel


@dataclass
class TraceQuantum:
    """One scheduling quantum: consecutive references from one CPU."""

    cpu: int
    refs: array


@dataclass
class OltpTrace:
    """A complete, replayable multi-CPU memory-reference trace."""

    ncpus: int
    scale: int
    page_bytes: int
    text_pages: FrozenSet[int]
    quanta: List[TraceQuantum]
    warmup_quanta: int
    measured_txns: int
    engine_stats: EngineStats
    config: WorkloadConfig

    @property
    def total_refs(self) -> int:
        return sum(len(q.refs) for q in self.quanta)

    @property
    def measured_refs(self) -> int:
        return sum(len(q.refs) for q in self.quanta[self.warmup_quanta:])


class TraceBuilder(EngineTracer):
    """EngineTracer implementation that records packed references.

    The open buffer holds packed *virtual*-line refs; :meth:`_flush`
    translates the whole quantum through the memory model's page table.
    """

    def __init__(
        self,
        model: MemoryModel,
        code: CodeModel,
        rng: random.Random,
        warmup_txns: int,
    ):
        self.model = model
        self.code = code
        self.rng = rng
        self.warmup_txns = warmup_txns
        self.quanta: List[TraceQuantum] = []
        #: Global index of ``quanta[0]``: stays 0 for whole-trace
        #: builds, advances as :meth:`drain_quanta` hands flushed
        #: quanta to a streaming producer.
        self.quanta_base = 0
        self.warmup_quanta: Optional[int] = None
        self._current: Optional[ProcessContext] = None
        self._buf: List[int] = []
        self._kernel_mode = False

    # -- quantum management ---------------------------------------------------

    def _flush(self) -> None:
        if self._current is not None and self._buf:
            self.quanta.append(TraceQuantum(self._current.cpu, self.model.translate(self._buf)))
            self._buf = []

    def finalize(self) -> None:
        """Flush the trailing quantum; call after the engine run ends."""
        self._flush()
        if self.warmup_quanta is None:
            self.warmup_quanta = 0

    def drain_quanta(self) -> List[TraceQuantum]:
        """Detach every *flushed* quantum (the streaming produce path).

        The open buffer of the currently running process is left in
        place — it belongs to a quantum that has not ended yet — so a
        quantum is never split across two drains and the concatenation
        of all drains equals a whole-trace build exactly.
        """
        done = self.quanta
        self.quanta = []
        self.quanta_base += len(done)
        return done

    def on_switch(self, process: ProcessContext) -> None:
        self._flush()
        self._current = process
        # Scheduler work: runqueue manipulation and the incoming
        # process's proc structure (kernel data, on the new CPU).
        buf = self._buf
        w = FLAG_WRITE | FLAG_KERNEL
        buf.append((self.model.krunq_addr(process.cpu) >> LINE_SHIFT << FLAG_BITS) | w)
        buf.append((self.model.kproc_addr(process.pga_id) >> LINE_SHIFT << FLAG_BITS)
                   | FLAG_KERNEL)

    # -- instruction side ----------------------------------------------------------

    def on_code(self, routine: str, units: int = 1) -> None:
        self.code.emit(routine, self._buf, units)

    # -- data side --------------------------------------------------------------------

    def _touch(self, addr: int, nbytes: int, write: bool,
               dependent: bool = False, kernel: bool = False) -> None:
        if nbytes <= 0:
            return
        flags = (FLAG_WRITE if write else 0) | (FLAG_KERNEL if kernel else 0)
        head = (addr >> LINE_SHIFT << FLAG_BITS) | flags
        # Only the first load heads an address-dependent chain.
        self._buf.append(head | FLAG_DEPENDENT if dependent else head)
        end = ((addr + nbytes - 1) >> LINE_SHIFT) + 1 << FLAG_BITS
        if head + LINE_STEP < end:
            self._buf.extend(range(head + LINE_STEP, end, LINE_STEP))

    def on_frame(self, frame_id: int, offset: int, nbytes: int,
                 write: bool, dependent: bool = False) -> None:
        self._touch(self.model.frame_addr(frame_id, offset), nbytes, write, dependent)

    def on_meta(self, struct: str, index: int, write: bool,
                dependent: bool = False) -> None:
        self._touch(self.model.meta_addr(struct, index), 16, write, dependent)

    def on_pga(self, offset: int, nbytes: int, write: bool) -> None:
        process = self._current
        if process is None:
            raise RuntimeError("PGA access before any process was dispatched")
        self._touch(self.model.pga_addr(process.pga_id, offset), nbytes, write)

    def on_log(self, offset: int, nbytes: int, write: bool) -> None:
        self._touch(self.model.log_addr(offset), nbytes, write)

    # -- kernel expansion ------------------------------------------------------------------

    def on_syscall(self, name: str, payload_bytes: int = 0, obj: int = 0) -> None:
        process = self._current
        if process is None:
            raise RuntimeError("syscall before any process was dispatched")
        code = self.code
        model = self.model
        code.emit("syscall_entry", self._buf)
        code.emit(name, self._buf)
        # Every syscall touches the caller's proc structure.
        self._touch(model.kproc_addr(process.pga_id), 64, True, kernel=True)
        if name in ("pipe_read", "pipe_write"):
            write = name == "pipe_write"
            self._touch(model.kpipe_addr(obj), max(64, payload_bytes), write, kernel=True)
        elif name in ("disk_read", "disk_write"):
            # Device queue manipulation plus the completion interrupt.
            self._touch(model.kglobal_addr(1), 64, True, kernel=True)
            code.emit("interrupt", self._buf)
        # Global kernel bookkeeping (time, stats): a genuinely shared
        # hot kernel line, occasionally updated by every CPU.
        if self.rng.random() < 0.2:
            self._touch(model.kglobal_addr(0), 64, True, kernel=True)

    # -- warmup boundary -----------------------------------------------------------------------

    def on_txn_boundary(self, committed: int) -> None:
        if self.warmup_quanta is None and committed >= self.warmup_txns:
            self._flush()
            self.warmup_quanta = self.quanta_base + len(self.quanta)


def _start_engine(ncpus: int, scale: int, seed: int,
                  warmup_txns: Optional[int], workload):
    """The engine and trace builder of one run, before any transaction.

    :func:`build_trace` and :func:`stream_trace` both start here, so a
    streamed trace stays chunk for chunk the trace a whole build gives.
    """
    config = WorkloadConfig.build(ncpus=ncpus, scale=scale, seed=seed,
                                  workload=workload)
    if warmup_txns is None:
        warmup_txns = max(100, 4 * config.num_servers)
    model = MemoryModel(config, seed=seed)
    rng = random.Random(seed ^ 0xC0DE)
    builder = TraceBuilder(model, CodeModel(model, rng), rng, warmup_txns)
    return OracleEngine(config, builder), builder


def build_trace(
    *,
    ncpus: int = 1,
    scale: int = 32,
    txns: int = 1000,
    warmup_txns: Optional[int] = None,
    seed: int = 2000,
    workload=None,
) -> OltpTrace:
    """Run the OLTP engine and capture its reference trace.

    ``txns`` are the *measured* transactions; ``warmup_txns`` default
    to enough transactions for every server process to have run several
    times, so caches and the buffer pool reach steady state before
    measurement starts.  ``workload`` (a
    :class:`~repro.scenario.workload.WorkloadSpec`, default the
    paper's TPC-B) selects the transaction mix the engine generates.
    """
    from repro.obs import current_tracer

    with current_tracer().span("trace.build", ncpus=ncpus, scale=scale,
                               txns=txns, seed=seed):
        engine, builder = _start_engine(ncpus, scale, seed, warmup_txns, workload)
        engine.prewarm()
        engine.run(builder.warmup_txns + txns)
        builder.finalize()
        engine.db.check_consistency()
        return OltpTrace(
            ncpus=ncpus,
            scale=scale,
            page_bytes=builder.model.page_bytes,
            text_pages=builder.model.text_pages,
            quanta=builder.quanta,
            warmup_quanta=builder.warmup_quanta,
            measured_txns=txns,
            engine_stats=engine.stats,
            config=engine.config,
        )


def stream_trace(
    *,
    ncpus: int = 1,
    scale: int = 32,
    txns: int = 1000,
    warmup_txns: Optional[int] = None,
    seed: int = 2000,
    chunk_txns: Optional[int] = None,
    workload=None,
):
    """Run the OLTP engine and *stream* its reference trace.

    Identical workload to :func:`build_trace` — same engine, same
    seeds, same flush points — but delivered as a
    :class:`~repro.trace.stream.StreamedTrace` of quantum-aligned
    chunks: the engine advances ``chunk_txns`` transactions at a time
    and every quantum flushed so far is handed downstream, so peak
    memory is one chunk instead of the whole trace.  Engine state
    itself is bounded (the TPC-B history segment is a circular
    window), which makes arbitrarily long runs flat in RSS.

    ``warmup_quanta`` and ``engine_stats`` on the returned stream are
    filled in as the producer advances; the warmup boundary is always
    published before the chunk containing it is yielded.
    """
    from repro.obs import current_tracer
    from repro.trace.stream import DEFAULT_CHUNK_TXNS, StreamedTrace, TraceChunk

    with current_tracer().span("trace.stream_setup", ncpus=ncpus,
                               scale=scale, seed=seed):
        engine, builder = _start_engine(ncpus, scale, seed, warmup_txns, workload)
    batch_txns = max(1, int(chunk_txns or DEFAULT_CHUNK_TXNS))
    total_txns = builder.warmup_txns + txns

    def produce():
        tracer = current_tracer()
        with tracer.span("trace.stream", ncpus=ncpus, scale=scale,
                         txns=txns, seed=seed, chunk_txns=batch_txns):
            engine.prewarm()
            remaining = total_txns
            while remaining > 0:
                batch = min(batch_txns, remaining)
                engine.run(batch)
                remaining -= batch
                # Publish the boundary before the chunk containing it
                # leaves the producer (the stream contract).
                streamed.warmup_quanta = builder.warmup_quanta
                start = builder.quanta_base
                quanta = builder.drain_quanta()
                if quanta:
                    yield TraceChunk(start, quanta)
            builder.finalize()
            engine.db.check_consistency()
            streamed.warmup_quanta = builder.warmup_quanta
            streamed.engine_stats = engine.stats
            start = builder.quanta_base
            quanta = builder.drain_quanta()
            if quanta:
                yield TraceChunk(start, quanta)

    streamed = StreamedTrace(
        ncpus=ncpus,
        scale=scale,
        page_bytes=builder.model.page_bytes,
        text_pages=builder.model.text_pages,
        measured_txns=txns,
        config=engine.config,
        chunks=produce(),
    )
    return streamed

"""Shared-memory trace views: one mapping, N campaign workers.

Without this module every worker process materializes its own copy of
each workload trace (archive load → decompress → per-quantum arrays),
so a campaign's resident memory scales with the worker count.  A
:class:`SharedTraceArena` lets the parent publish each distinct trace
once into a ``multiprocessing.shared_memory`` segment — packed exactly
like the ``.npz`` archive body (cpu ids, quantum offsets, references,
text pages) — and hands workers a small picklable
:class:`SharedTraceHandle`.  :func:`attach_shared_trace` maps the
segment read-only-in-spirit and builds an
:class:`~repro.trace.generator.OltpTrace` whose quantum reference
arrays are zero-copy numpy views of the shared buffer, so N workers
replay one physical mapping.

Crash safety: only the *parent* ever unlinks a segment
(:meth:`SharedTraceArena.cleanup`, also registered ``atexit``), so a
worker crash or a SupervisedExecutor pool respawn needs no
coordination — respawned workers simply re-attach by name.

Resource-tracker bookkeeping: attaching to a segment registers it
with the attaching process's resource tracker, which unlinks whatever
is still registered when its clients exit.
The tracker keeps one set entry per name, so the parent's create and
a forked worker's attach (workers share the parent's tracker) collapse
into a single registration that the parent's ``unlink`` retires.  A
worker therefore unregisters its attachment only when it runs its
*own* tracker (a spawned worker); unregistering from the shared one
would delete the parent's entry and make the parent's ``unlink``
raise ``KeyError`` inside the tracker.
"""

from __future__ import annotations

import atexit
import json
import os
import secrets
from array import array
from dataclasses import asdict, dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.trace.generator import OltpTrace, TraceQuantum

__all__ = [
    "SEGMENT_PREFIX",
    "SharedTraceHandle",
    "SharedTraceArena",
    "attach_shared_trace",
    "detach_all",
]

#: Every arena segment name starts with this, so tests (and operators)
#: can audit ``/dev/shm`` for leaks after a campaign.
SEGMENT_PREFIX = "repro_trace_"


@dataclass(frozen=True)
class SharedTraceHandle:
    """A picklable reference to one published trace segment.

    ``meta`` is the same JSON metadata blob the archive format
    carries; the three lengths fix the segment layout: ``offsets``
    (int64, ``num_quanta + 1``), ``refs`` (int64), ``text_pages``
    (int64) in that order — all 8-byte aligned — followed by ``cpus``
    (int32, ``num_quanta``).  ``tracker_pid`` is the publishing
    parent's resource-tracker process, which forked workers share.
    """

    name: str
    meta: str
    num_quanta: int
    num_refs: int
    num_text: int
    tracker_pid: Optional[int]

    @property
    def nbytes(self) -> int:
        return (8 * (self.num_quanta + 1 + self.num_refs + self.num_text)
                + 4 * self.num_quanta)


def _pack(trace: OltpTrace) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, dict]:
    """Pack a trace into the archive-shaped arrays plus metadata."""
    nq = len(trace.quanta)
    cpus = np.fromiter((q.cpu for q in trace.quanta), dtype=np.int32,
                       count=nq)
    lengths = np.fromiter((len(q.refs) for q in trace.quanta),
                          dtype=np.int64, count=nq)
    offsets = np.zeros(nq + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    refs = np.empty(int(offsets[-1]), dtype=np.int64)
    for i, q in enumerate(trace.quanta):
        refs[offsets[i]:offsets[i + 1]] = q.refs
    text_pages = np.array(sorted(trace.text_pages), dtype=np.int64)
    config = asdict(trace.config)
    tpcb = config.pop("tpcb")
    meta = {
        "ncpus": trace.ncpus,
        "scale": trace.scale,
        "page_bytes": trace.page_bytes,
        "warmup_quanta": trace.warmup_quanta,
        "measured_txns": trace.measured_txns,
        "engine_stats": asdict(trace.engine_stats),
        "config": config,
        "tpcb": tpcb,
    }
    return cpus, offsets, refs, text_pages, meta


def _views(buf, handle: SharedTraceHandle):
    """The four array views over a segment buffer, per the layout."""
    nq, nr, nt = handle.num_quanta, handle.num_refs, handle.num_text
    pos = 0
    offsets = np.frombuffer(buf, dtype=np.int64, count=nq + 1, offset=pos)
    pos += 8 * (nq + 1)
    refs = np.frombuffer(buf, dtype=np.int64, count=nr, offset=pos)
    pos += 8 * nr
    text = np.frombuffer(buf, dtype=np.int64, count=nt, offset=pos)
    pos += 8 * nt
    cpus = np.frombuffer(buf, dtype=np.int32, count=nq, offset=pos)
    return cpus, offsets, refs, text


class SharedTraceArena:
    """Parent-side registry of published trace segments.

    One arena per campaign runner (or job service); ``cleanup`` is
    idempotent and registered ``atexit``, so segments cannot outlive
    the parent on any orderly exit path — including an exception that
    skips ``close()``.
    """

    def __init__(self):
        self._segments: Dict[object, Tuple[shared_memory.SharedMemory,
                                           SharedTraceHandle]] = {}
        self._seq = 0
        atexit.register(self.cleanup)

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def bytes_published(self) -> int:
        return sum(h.nbytes for _, h in self._segments.values())

    def publish(self, spec, store) -> SharedTraceHandle:
        """Publish the trace for ``spec`` (idempotent per arena).

        ``store`` is the parent's :class:`~repro.runner.tracestore
        .TraceStore`; the trace materializes through the ordinary
        memory/archive/build path, then is packed into a fresh
        segment.
        """
        cached = self._segments.get(spec)
        if cached is not None:
            return cached[1]
        trace = store.get(spec)
        cpus, offsets, refs, text, meta = _pack(trace)
        total = cpus.nbytes + offsets.nbytes + refs.nbytes + text.nbytes
        name = (f"{SEGMENT_PREFIX}{os.getpid()}_{self._seq}_"
                f"{secrets.token_hex(4)}")
        self._seq += 1
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, total))
        handle = SharedTraceHandle(
            name=shm.name, meta=json.dumps(meta),
            num_quanta=len(cpus), num_refs=len(refs), num_text=len(text),
            tracker_pid=_tracker_pid(),
        )
        v_cpus, v_offsets, v_refs, v_text = _views(shm.buf, handle)
        v_offsets[:] = offsets
        v_refs[:] = refs
        v_text[:] = text
        v_cpus[:] = cpus
        self._segments[spec] = (shm, handle)
        from repro.obs import current_metrics

        current_metrics().count("campaign.shm_segments")
        return handle

    def cleanup(self) -> None:
        """Close and unlink every published segment (idempotent)."""
        segments, self._segments = self._segments, {}
        for shm, _ in segments.values():
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass

    def __enter__(self) -> "SharedTraceArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()


# -- worker side ---------------------------------------------------------------

def _tracker_pid() -> Optional[int]:
    """This process's resource-tracker pid (``None`` before it starts)."""
    return getattr(resource_tracker._resource_tracker, "_pid", None)


#: Per-process attachment cache: a worker replaying many jobs against
#: the same workload attaches (and rebuilds the quantum views) once.
#: Tuple order matters — the trace (holding buffer views) must be
#: destroyed before its SharedMemory closes, or teardown raises
#: "cannot close exported pointers exist".
_ATTACHED: Dict[str, Tuple[OltpTrace, shared_memory.SharedMemory]] = {}


def attach_shared_trace(handle: SharedTraceHandle) -> OltpTrace:
    """Map a published segment and view it as an ``OltpTrace``.

    Quantum ``refs`` are numpy slices of the shared buffer — no copy;
    every replay engine accepts them (``iter_quanta`` hands the scalar
    loops each quantum as Python ints, the vectorized kernels
    ``np.frombuffer`` them).  Raises the
    underlying ``FileNotFoundError`` if the parent already unlinked
    the segment (the supervisor retries such a job like any other
    transient failure).
    """
    cached = _ATTACHED.get(handle.name)
    if cached is not None:
        return cached[0]
    shm = shared_memory.SharedMemory(name=handle.name)
    if _tracker_pid() != handle.tracker_pid:
        try:
            # A tracker of this process's own would unlink the segment
            # when this process exits, racing the parent and every
            # sibling worker (3.11 has no ``track=False``).  The
            # parent's tracker, by contrast, already holds the one
            # entry the parent's unlink retires.
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    meta = json.loads(handle.meta)
    cpus, offsets, refs, text = _views(shm.buf, handle)
    quanta = [
        TraceQuantum(int(cpus[i]), refs[offsets[i]:offsets[i + 1]])
        for i in range(handle.num_quanta)
    ]
    from repro.oltp.config import WorkloadConfig
    from repro.oltp.engine import EngineStats
    from repro.oltp.schema import TpcbScale

    trace = OltpTrace(
        ncpus=meta["ncpus"],
        scale=meta["scale"],
        page_bytes=meta["page_bytes"],
        text_pages=frozenset(int(p) for p in text),
        quanta=quanta,
        warmup_quanta=meta["warmup_quanta"],
        measured_txns=meta["measured_txns"],
        engine_stats=EngineStats(**meta["engine_stats"]),
        config=WorkloadConfig(tpcb=TpcbScale(**meta["tpcb"]),
                              **meta["config"]),
    )
    _ATTACHED[handle.name] = (trace, shm)
    return trace


def detach_all() -> None:
    """Drop this process's attachments (tests; harmless in workers).

    A mapping whose trace views are still referenced elsewhere cannot
    close; it is dropped from the cache and closes when the last view
    dies.
    """
    attached = list(_ATTACHED.values())
    _ATTACHED.clear()
    for trace, shm in attached:
        del trace
        try:
            shm.close()
        except BufferError:
            pass
        except Exception:
            pass

"""Chunk-streamed traces on the numpy engines.

``System._run_numpy`` is the one place a
:class:`~repro.trace.stream.StreamedTrace` is collected: the staged
replay kernel takes a materialized trace only.  These tests check
that seam from both sides, on one node and on several.  A streamed
``System.run`` reproduces the kernel driven directly on the
materialized trace, and the stream's validating iterator still sees
every quantum and reference.  The kernel is driven exactly the way
``System.run`` wires it up (homemap → protocol → interconnect).
"""

from __future__ import annotations

import pytest

from repro.coherence.homemap import HomeMap
from repro.coherence.network import MessageCounters
from repro.coherence.protocol import DirectoryProtocol
from repro.core.machine import MachineConfig
from repro.core.system import System
from repro.memsys.vectorized_mp import replay_multiprocessor
from repro.trace.generator import build_trace
from repro.trace.stream import StreamedTrace

SCALE = 128

#: Chunkings per streamed replay: degenerate single-quantum chunks, a
#: prime stride that never divides the quantum count, and the whole
#: trace as one chunk.
CHUNKS = [1, 7, None]
CHUNK_IDS = ["chunk1", "chunk7", "whole"]


@pytest.fixture(scope="module")
def uni():
    return build_trace(ncpus=1, scale=SCALE, txns=40, warmup_txns=20,
                       seed=13)


@pytest.fixture(scope="module")
def mp():
    return build_trace(ncpus=2, scale=SCALE, txns=60, warmup_txns=24,
                       seed=13)


def run_kernel(machine: MachineConfig, trace, kernel, engine: str) -> dict:
    """Invoke a replay kernel on a materialized ``trace`` the way
    ``System.run`` does, without going through ``System._run_numpy``."""
    system = System(machine, engine=engine)
    system._ran = True
    replicated = None
    if machine.replicate_code:
        text_pages = trace.text_pages
        page_lines_shift = (trace.page_bytes // 64).bit_length() - 1
        replicated = lambda line: (line >> page_lines_shift) in text_pages  # noqa: E731
    homemap = HomeMap(machine.num_nodes, trace.page_bytes, replicated)
    protocol = system.protocol = DirectoryProtocol(
        homemap, system.nodes, system.racs)
    counters = MessageCounters()
    kernel(system, trace, protocol, counters)
    return system._collect(trace, protocol, counters).to_dict()


def run_streamed(machine: MachineConfig, stream, engine: str) -> dict:
    return System(machine, engine=engine).run(stream).to_dict()


class TestUniprocessorKernel:
    @pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
    def test_streamed_input_identical(self, uni, chunk):
        machine = MachineConfig.base(1, scale=SCALE)
        base = run_kernel(machine, uni, replay_multiprocessor, "vectorized")
        stream = StreamedTrace.from_trace(uni, chunk)
        streamed = run_streamed(machine, stream, "vectorized")
        assert streamed == base
        # System collected the stream: the validating iterator saw
        # every quantum and reference.
        assert stream.consumed
        assert stream.quanta_seen == len(uni.quanta)
        assert stream.refs_seen == uni.total_refs
        assert stream.measured_refs == base["trace_refs"]
        assert base == System(machine, engine="fast").run(uni).to_dict()

    def test_stream_single_use_after_kernel(self, uni):
        machine = MachineConfig.base(1, scale=SCALE)
        stream = StreamedTrace.from_trace(uni, 5)
        run_streamed(machine, stream, "vectorized")
        with pytest.raises(Exception):
            stream.collect()


class TestMultiprocessorKernel:
    @pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
    def test_streamed_input_identical(self, mp, chunk):
        machine = MachineConfig.fully_integrated(2, scale=SCALE)
        base = run_kernel(machine, mp, replay_multiprocessor,
                          "vectorized-mp")
        stream = StreamedTrace.from_trace(mp, chunk)
        streamed = run_streamed(machine, stream, "vectorized-mp")
        assert streamed == base
        assert stream.consumed
        assert stream.quanta_seen == len(mp.quanta)

    def test_matches_system_run(self, mp):
        """The direct-call path reproduces ``System.run`` end to end."""
        machine = MachineConfig.fully_integrated(2, scale=SCALE)
        via_system = System(machine, engine="vectorized-mp").run(
            mp).to_dict()
        direct = run_kernel(machine, mp, replay_multiprocessor,
                            "vectorized-mp")
        assert direct == via_system

    @pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
    def test_uniprocessor_ooo_streamed(self, uni, chunk):
        """A uniprocessor OOO machine replays on the ordered walk as
        one node, which is what a streamed ``vectorized`` run
        reproduces."""
        machine = MachineConfig.base(1, scale=SCALE, cpu_model="ooo")
        base = run_kernel(machine, uni, replay_multiprocessor, "vectorized")
        stream = StreamedTrace.from_trace(uni, chunk)
        assert run_streamed(machine, stream, "vectorized") == base
        assert stream.quanta_seen == len(uni.quanta)
        assert base == System(machine, engine="fast").run(uni).to_dict()

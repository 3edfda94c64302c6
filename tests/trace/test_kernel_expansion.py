"""Tests for the tracer's kernel-activity expansion of engine hooks."""

import random

import pytest

from repro.cpu.events import decode
from repro.oltp.config import WorkloadConfig
from repro.oltp.tracing import ProcessContext
from repro.trace.address_space import MemoryModel
from repro.trace.codepath import CodeModel
from repro.trace.generator import TraceBuilder


@pytest.fixture()
def builder():
    config = WorkloadConfig.build(ncpus=2, scale=128, seed=9)
    model = MemoryModel(config, seed=9)
    rng = random.Random(9)
    b = TraceBuilder(model, CodeModel(model, rng), rng, warmup_txns=0)
    b.on_switch(ProcessContext("server", 0, cpu=1))
    b._buf.clear()  # drop the scheduler refs; tests focus on one hook
    return b


def lines_in_region(builder, region_name):
    model = builder.model
    region = model.regions[region_name]
    page0 = region.base // model.page_bytes
    page1 = (region.end - 1) // model.page_bytes
    pages = {model.line_of(p * model.page_bytes) // model.page_lines
             for p in range(page0, page1 + 1)}
    return pages


def open_refs(builder):
    """The open quantum's refs as the flush will record them (physical)."""
    return builder.model.translate(builder._buf)


def test_pipe_read_touches_pipe_buffer_and_proc(builder):
    builder.on_syscall("pipe_read", 128, obj=0)
    refs = [decode(r) for r in open_refs(builder)]
    kernel_data = [r for r in refs if r[3] and not r[2]]
    assert kernel_data  # proc struct + pipe buffer
    kernel_code = [r for r in refs if r[3] and r[2]]
    assert kernel_code  # syscall entry + pipe path


def test_pipe_write_marks_buffer_written(builder):
    builder.on_syscall("pipe_write", 128, obj=1)
    pipe_pages = lines_in_region(builder, "kpipe")
    model = builder.model
    writes = [
        decode(r) for r in open_refs(builder)
        if decode(r)[1] and (decode(r)[0] // model.page_lines) in pipe_pages
    ]
    assert writes


def test_disk_io_touches_device_queue_and_interrupt_path(builder):
    builder.on_syscall("disk_write", 2048)
    refs = [decode(r) for r in open_refs(builder)]
    kglobal_pages = lines_in_region(builder, "kglobal")
    model = builder.model
    device = [r for r in refs
              if (r[0] // model.page_lines) in kglobal_pages and r[1]]
    assert device  # device-queue write


def test_syscall_requires_process(builder):
    builder._current = None
    with pytest.raises(RuntimeError):
        builder.on_syscall("pipe_read", 64)
    with pytest.raises(RuntimeError):
        builder.on_pga(0, 64, False)


def test_switch_emits_scheduler_traffic(builder):
    builder.on_switch(ProcessContext("server", 1, cpu=0))
    # The flush pushed the old quantum; the new buffer has runqueue
    # and proc-struct refs, all kernel-flagged.
    assert builder._buf
    assert all(decode(r)[3] for r in open_refs(builder))


def test_quantum_tagged_with_process_cpu(builder):
    builder.on_code("sql_parse")
    builder.on_switch(ProcessContext("server", 1, cpu=0))
    assert builder.quanta[-1].cpu == 1  # the flushed quantum ran on cpu 1


def test_dependent_flag_only_on_chain_head(builder):
    builder.on_meta("buf_hash", 3, False, dependent=True)
    # A multi-line touch would clear the flag after the first line;
    # a 16-byte meta touch is one line, flagged.
    assert decode(open_refs(builder)[-1])[4] is True
    builder.on_frame(0, 0, 256, False, dependent=True)  # 4 lines
    tail = [decode(r)[4] for r in open_refs(builder)[-4:]]
    assert tail == [True, False, False, False]

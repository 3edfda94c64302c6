"""Instruction-fetch modelling: engine routines mapped onto code pages.

OLTP executions are dominated by a large, branchy instruction
footprint: every transaction sweeps most of the engine's hot text once
(paper Sections 1 and 3 — the I-footprint overwhelms the L1 and
stresses even multi-megabyte L2s).  We model this by giving every
engine/kernel routine a contiguous slice of the (scaled) hot text
region, sized proportionally to fixed weights; executing a routine
fetches its lines in order.  A small probability of straying into the
cold-text tail reproduces the long footprint tail (error paths, rare
SQL shapes, seldom-used kernel code).

The encoded (virtual-line) reference list per routine is precomputed
once — emission is a single ``list.extend``; the trace builder
translates the lines to physical ones when the quantum ends.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.cpu.events import FLAG_BITS, FLAG_INSTR, FLAG_KERNEL
from repro.params import LINE_SHIFT, LINE_SIZE
from repro.trace.address_space import MemoryModel

#: Relative hot-text sizes of the engine's user-mode routines.
USER_ROUTINES: Dict[str, int] = {
    "sql_parse": 12,
    "sql_execute": 10,
    "idx_search": 6,
    "buf_get": 8,
    "buf_replace": 5,
    "row_update": 7,
    "row_insert": 5,
    "redo_gen": 6,
    "latch_get": 2,
    "txn_commit": 6,
    "lgwr_flush": 7,
    "dbwr_scan": 7,
}

#: Relative hot-text sizes of the kernel paths.
KERNEL_ROUTINES: Dict[str, int] = {
    "ctx_switch": 9,
    "pipe_read": 8,
    "pipe_write": 8,
    "disk_read": 7,
    "disk_write": 7,
    "syscall_entry": 4,
    "interrupt": 6,
}

#: Chance per routine execution of straying into cold text.
COLD_VISIT_PROB = 0.015

#: Lines fetched per cold-text excursion.
COLD_VISIT_LINES = 4

#: Difference between the packed refs of consecutive lines.
LINE_STEP = 1 << FLAG_BITS


class UnknownRoutineError(KeyError):
    """The engine reported a routine the code model has no slice for."""


class CodeModel:
    """Precomputed per-routine instruction reference sequences."""

    def __init__(self, model: MemoryModel, rng: random.Random):
        self.model = model
        self.rng = rng
        self._encoded: Dict[str, List[int]] = {}
        self._layout: Dict[str, tuple] = {}
        self._build("text_hot", USER_ROUTINES, kernel=False)
        self._build("ktext_hot", KERNEL_ROUTINES, kernel=True)
        self._cold_user = model.regions["text_cold"]
        self._cold_kernel = model.regions["ktext_cold"]
        self._kernel_names = frozenset(KERNEL_ROUTINES)

    def _build(self, region_name: str, table: Dict[str, int], kernel: bool) -> None:
        region = self.model.regions[region_name]
        total_lines = region.size // LINE_SIZE
        total_weight = sum(table.values())
        flags = FLAG_INSTR | (FLAG_KERNEL if kernel else 0)
        cursor = 0
        for name, weight in table.items():
            nlines = max(2, (total_lines * weight) // total_weight)
            if cursor + nlines > total_lines:
                nlines = max(1, total_lines - cursor)
            addr0 = region.base + cursor * LINE_SIZE
            head = (addr0 >> LINE_SHIFT << FLAG_BITS) | flags
            self._encoded[name] = list(range(head, head + nlines * LINE_STEP, LINE_STEP))
            self._layout[name] = (addr0, nlines, kernel)
            cursor += nlines

    # -- queries -------------------------------------------------------------

    def routine_lines(self, name: str) -> int:
        """Number of I-lines ``name`` fetches per execution."""
        try:
            return self._layout[name][1]
        except KeyError:
            raise UnknownRoutineError(name) from None

    def is_kernel(self, name: str) -> bool:
        return name in self._kernel_names

    @property
    def routines(self) -> tuple:
        return tuple(self._encoded)

    # -- emission ---------------------------------------------------------------

    def emit(self, name: str, out: List[int], units: int = 1) -> None:
        """Append ``units`` executions of ``name`` to the ref buffer.

        Each execution enters at the routine's head and, mimicking
        data-dependent branches, covers a random 50–100 % prefix of its
        body; over many transactions every line stays hot while the
        per-transaction fetch volume matches branchy OLTP code.
        """
        try:
            refs = self._encoded[name]
        except KeyError:
            raise UnknownRoutineError(name) from None
        n = len(refs)
        rand = self.rng.random
        for _ in range(units):
            cover = n - int(rand() * 0.5 * n)
            out.extend(refs[:cover])
        if self.rng.random() < COLD_VISIT_PROB * units:
            kernel = self._layout[name][2]
            region = self._cold_kernel if kernel else self._cold_user
            flags = FLAG_INSTR | (FLAG_KERNEL if kernel else 0)
            span = max(1, region.size // LINE_SIZE - COLD_VISIT_LINES)
            start = self.rng.randrange(span)
            head = ((region.base >> LINE_SHIFT) + start << FLAG_BITS) | flags
            out.extend(range(head, head + COLD_VISIT_LINES * LINE_STEP, LINE_STEP))

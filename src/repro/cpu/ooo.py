"""Four-wide out-of-order processor timing model (paper Section 7).

The paper's OOO configuration: 4-wide issue, four integer units, two
load/store units, 64-entry instruction window.  Its headline findings
are (a) ~1.4x (uni) / ~1.3x (MP) absolute gain over the in-order core,
driven by latency hiding rather than issue width, and (b) *identical
relative* benefits from chip-level integration.

We model the window with a latency-overlap queue rather than a full
pipeline: the core can slide up to ``window_cycles`` of execution past
an outstanding data miss before the window fills and it stalls, a
limited number of misses (MSHRs) can be outstanding at once, and a
load flagged *dependent* (pointer chase) cannot issue until the
previous miss returns — which is why OLTP, with its chains of
dependent memory operations, gains far less than SPEC-style codes.
Instruction-fetch misses stall the front end for a fixed fraction
of their latency (fetch-ahead hides the rest).

The model is one loop, :func:`charge_quantum_ooo`: it prices a
quantum of an ordered memory profile (its fetches and service
records, see :mod:`repro.core.profile`) on local variables and writes
the processor's state back once.  :class:`OutOfOrderCPU` holds that
state between quanta, the model's constants, the warmup ``reset``,
the end-of-run ``drain`` and the ``breakdown``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cpu.events import NUM_STALL_CLASSES
from repro.params import INSTRS_PER_ILINE
from repro.stats.breakdown import ExecutionBreakdown


class OutOfOrderCPU:
    """One processor's state and constants for :func:`charge_quantum_ooo`."""

    MODEL_NAME = "out-of-order"

    #: A 64-entry window retiring OLTP's limited ILP gives roughly this
    #: much slack past an outstanding data miss before the ROB fills.
    WINDOW_CYCLES = 24

    #: Outstanding-miss limit (MSHRs / load-store queue depth).
    MSHRS = 8

    #: Fraction of I-side miss latency hidden by the fetch buffer,
    #: branch prediction and fetch-ahead.  Proportional (not
    #: subtractive) hiding keeps the *relative* cost of different
    #: memory systems unchanged — which is exactly the paper's
    #: Section-7 finding about integration gains under OOO.
    FRONTEND_HIDE = 0.30

    #: Busy-time speedup of 4-wide issue on OLTP's limited ILP.  The
    #: paper (citing Ranganathan et al.) finds OLTP "does not benefit
    #: from extremely wide issue"; most of the gain is latency hiding.
    ISSUE_SPEEDUP = 1.45

    __slots__ = (
        "cpu_id",
        "busy_cycles",
        "kernel_busy_cycles",
        "stall_cycles",
        "_now",
        "_outstanding",
        "_last_completion",
    )

    def __init__(self, cpu_id: int = 0):
        self.cpu_id = cpu_id
        self.busy_cycles = 0.0
        self.kernel_busy_cycles = 0.0
        self.stall_cycles = [0.0] * NUM_STALL_CLASSES
        self._now = 0.0
        self._outstanding = []
        self._last_completion = 0.0

    def drain(self) -> None:
        """Wait for all outstanding misses at the end of a run."""
        if self._outstanding:
            last = max(self._outstanding)
            if last > self._now:
                # Residual drain is charged as local stall-equivalent;
                # it is negligible (at most MSHRS misses once per run).
                self.stall_cycles[1] += last - self._now
                self._now = last
            self._outstanding = []

    def reset(self) -> None:
        self.busy_cycles = 0.0
        self.kernel_busy_cycles = 0.0
        self.stall_cycles = [0.0] * NUM_STALL_CLASSES
        # Keep _now/_outstanding: resetting statistics mid-run (warmup
        # boundary) must not rewind the pipeline itself.

    def breakdown(self) -> ExecutionBreakdown:
        s = self.stall_cycles
        return ExecutionBreakdown(
            busy=self.busy_cycles,
            kernel_busy=self.kernel_busy_cycles,
            l2_hit=s[0],
            local_stall=s[1],
            remote_clean_stall=s[2],
            remote_dirty_stall=s[3],
        )


#: Cycles of issue time one instruction-cache line of fetches costs.
FETCH_CYCLES = INSTRS_PER_ILINE / OutOfOrderCPU.ISSUE_SPEEDUP


def charge_quantum_ooo(cpu, timing: Sequence, ipos: List[int],
                       ikern: List[bool]) -> None:
    """Replay one quantum's timing records through an out-of-order CPU.

    ``timing`` holds ``(pos, cycles, klass, dep, is_instr)`` records in
    program order; ``ipos``/``ikern`` are the positions (on the same
    axis) and kernel flags of the quantum's instruction fetches.  A
    fetch is busy time (``FETCH_CYCLES``) charged *before* any stall
    that fetch produces, so the merge applies every fetch with
    ``ipos <= pos`` ahead of the stall at ``pos``.  A record of class
    ``KERNEL_BUSY`` (a software TLB walk) is kernel busy time that
    comes before its own reference's fetch.  The CPU's state lives in
    locals for the quantum and is written back once.
    """
    speedup = cpu.ISSUE_SPEEDUP
    window = cpu.WINDOW_CYCLES
    mshrs = cpu.MSHRS
    keep = 1.0 - cpu.FRONTEND_HIDE
    fetch = FETCH_CYCLES
    now = cpu._now
    busy = cpu.busy_cycles
    kbusy = cpu.kernel_busy_cycles
    stalls = cpu.stall_cycles
    outstanding = cpu._outstanding
    last = cpu._last_completion
    n_i = len(ipos)
    ip = 0
    for pos, cycles, klass, dep, is_instr in timing:
        if klass < 0:  # KERNEL_BUSY, the one class that is not a stall
            while ip < n_i and ipos[ip] < pos:
                busy += fetch
                if ikern[ip]:
                    kbusy += fetch
                now += fetch
                ip += 1
            c = cycles / speedup
            busy += c
            kbusy += c
            now += c
            continue
        while ip < n_i and ipos[ip] <= pos:
            busy += fetch
            if ikern[ip]:
                kbusy += fetch
            now += fetch
            ip += 1
        if is_instr:
            # Front-end starvation: fetch-ahead hides a fixed fraction
            # of the latency; the rest stalls the pipe.
            stall = cycles * keep
            now = now + stall
            stalls[klass] += stall
            last = now
            continue
        if outstanding:
            # Retire misses that have already come back.
            outstanding = [t for t in outstanding if t > now]
        issue = now  # a dependent load waits for the previous miss
        if dep and last > issue:
            issue = last
        if len(outstanding) >= mshrs:
            earliest = min(outstanding)
            outstanding.remove(earliest)
            if earliest > issue:
                issue = earliest
        completion = issue + cycles
        outstanding.append(completion)
        last = completion
        stall = completion - now - window
        if stall > 0:
            stalls[klass] += stall
            now = now + stall
    while ip < n_i:
        busy += fetch
        if ikern[ip]:
            kbusy += fetch
        now += fetch
        ip += 1
    cpu._now = now
    cpu.busy_cycles = busy
    cpu.kernel_busy_cycles = kbusy
    cpu._outstanding = outstanding
    cpu._last_completion = last

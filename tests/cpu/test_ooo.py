"""Tests for the out-of-order CPU's overlap behaviour.

:func:`~repro.cpu.ooo.charge_quantum_ooo` is the whole timing model,
one loop on local variables.  The behavioural tests drive it with
hand-made records; the property test holds it bit for bit to
:class:`ReferenceOOO`, an independent per-event transcription of the
model (one ``busy`` call per fetch, one ``stall`` call per record), on
seeded random record streams.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.events import (
    KERNEL_BUSY,
    NUM_STALL_CLASSES,
    STALL_L2_HIT,
    STALL_LOCAL,
    STALL_REMOTE_DIRTY,
)
from repro.cpu.ooo import FETCH_CYCLES, OutOfOrderCPU, charge_quantum_ooo
from repro.params import INSTRS_PER_ILINE

WINDOW = OutOfOrderCPU.WINDOW_CYCLES


def charge(cpu, records, fetches=()):
    """Charge one quantum: ``records`` are ``(pos, cycles, klass, dep,
    is_instr)``, ``fetches`` are ``(pos, kernel)``."""
    charge_quantum_ooo(cpu, records, [p for p, _ in fetches],
                       [k for _, k in fetches])
    return cpu


def misses(*specs):
    """Data-miss records at positions 0, 1, ...: ``(cycles, dep)`` or
    ``cycles``."""
    out = []
    for pos, spec in enumerate(specs):
        cycles, dep = spec if isinstance(spec, tuple) else (spec, False)
        out.append((pos, cycles, STALL_LOCAL, dep, False))
    return out


def test_a_fetch_is_busy_time_scaled_by_issue_speedup():
    cpu = charge(OutOfOrderCPU(), [], [(0, False), (1, True)])
    assert FETCH_CYCLES == INSTRS_PER_ILINE / OutOfOrderCPU.ISSUE_SPEEDUP
    assert cpu.busy_cycles == 2 * FETCH_CYCLES
    assert cpu.kernel_busy_cycles == FETCH_CYCLES
    assert cpu._now == 2 * FETCH_CYCLES


def test_each_miss_costs_less_than_its_latency():
    """The window shaves WINDOW_CYCLES off every independent miss."""
    one = charge(OutOfOrderCPU(), misses(100))
    assert one._now == 100 - WINDOW
    two = charge(OutOfOrderCPU(), misses(100, 100))
    assert two._now - one._now < 100


def test_dependent_misses_serialize():
    indep = charge(OutOfOrderCPU(), misses(100, (100, False)))
    dep = charge(OutOfOrderCPU(), misses(100, (100, True)))
    # The dependent load waits for the first miss to return, costing
    # (at least) the window's worth of extra serialization.
    assert dep._now >= indep._now + WINDOW


def test_window_hides_short_latency_completely():
    cpu = charge(OutOfOrderCPU(),
                 [(0, WINDOW - 1, STALL_L2_HIT, False, False)])
    assert cpu._now == 0
    assert cpu.breakdown().l2_hit == 0


def test_long_latency_stalls_beyond_window():
    cpu = charge(OutOfOrderCPU(),
                 [(0, 200, STALL_REMOTE_DIRTY, False, False)])
    assert cpu._now == 200 - WINDOW
    assert cpu.breakdown().remote_dirty_stall == 200 - WINDOW


def test_instruction_miss_hides_fixed_fraction():
    cpu = charge(OutOfOrderCPU(), [(0, 100, STALL_LOCAL, False, True)])
    expected = 100 * (1 - OutOfOrderCPU.FRONTEND_HIDE)
    assert abs(cpu._now - expected) < 1e-9
    assert abs(cpu.breakdown().local_stall - expected) < 1e-9


def test_instruction_hiding_preserves_latency_ratios():
    """Key Section-7 property: I-side stalls scale linearly with latency."""
    a = charge(OutOfOrderCPU(), [(0, 25, STALL_L2_HIT, False, True)])
    b = charge(OutOfOrderCPU(), [(0, 15, STALL_L2_HIT, False, True)])
    assert abs(a._now / b._now - 25 / 15) < 1e-9


def test_mshr_limit_throttles_unbounded_overlap():
    cpu = charge(OutOfOrderCPU(), misses(*[100] * (OutOfOrderCPU.MSHRS + 4)))
    # With only MSHRS outstanding slots, 12 misses cannot all overlap.
    assert cpu._now > 100


def test_busy_between_misses_reduces_overlap_pressure():
    burst = charge(OutOfOrderCPU(), misses(100, (100, True)))
    # 20 fetches (160 instructions) between the two misses.
    spaced = charge(OutOfOrderCPU(), [(0, 100, STALL_LOCAL, False, False),
                                      (21, 100, STALL_LOCAL, True, False)],
                    [(pos, False) for pos in range(1, 21)])
    # The spaced version did useful work meanwhile; total time grows,
    # but stall time shrinks.
    assert spaced.breakdown().local_stall < burst.breakdown().local_stall


def test_a_fetch_is_charged_before_the_stall_at_its_position():
    """A fetch at a record's position is charged first; a software TLB
    walk (KERNEL_BUSY) is charged before its own reference's fetch."""
    cpu = charge(OutOfOrderCPU(), [(0, 7, KERNEL_BUSY, False, False),
                                   (0, 100, STALL_LOCAL, False, True)],
                 [(0, False)])
    walk = 7 / OutOfOrderCPU.ISSUE_SPEEDUP
    assert cpu.kernel_busy_cycles == walk
    assert cpu.busy_cycles == walk + FETCH_CYCLES
    assert cpu._now == walk + FETCH_CYCLES + 100 * (
        1.0 - OutOfOrderCPU.FRONTEND_HIDE)


def test_drain_completes_outstanding():
    cpu = charge(OutOfOrderCPU(), misses(1000))
    before = cpu._now
    cpu.drain()
    assert cpu._now >= before
    cpu.drain()  # idempotent


def test_ooo_never_slower_than_inorder_on_data():
    """For any data-miss sequence the OOO core is at least as fast."""
    seq = [(100, False), (25, False), (275, True), (25, False), (100, False)]
    # One fetch (8 instructions) ahead of each miss.
    cpu = charge(OutOfOrderCPU(),
                 [(pos, lat, STALL_LOCAL, dep, False)
                  for pos, (lat, dep) in enumerate(seq)],
                 [(pos, False) for pos in range(len(seq))])
    # An in-order core stalls for every miss in full.
    assert cpu._now < sum(INSTRS_PER_ILINE + lat for lat, _ in seq)


def test_reset_keeps_pipeline_position():
    cpu = charge(OutOfOrderCPU(), [], [(0, False)] * 7)
    now = cpu._now
    cpu.reset()
    assert cpu._now == now          # pipeline does not rewind
    assert cpu.breakdown().total == 0  # statistics do


def test_state_carries_across_quanta():
    """Misses outstanding at a quantum's end overlap the next one."""
    split = charge(charge(OutOfOrderCPU(), misses(300)),
                   [(1, 300, STALL_LOCAL, False, False)])
    whole = charge(OutOfOrderCPU(), misses(300, 300))
    assert split._now == whole._now
    assert split.breakdown() == whole.breakdown()


# ---------------------------------------------------------------------------
# The per-event model, transcribed independently, and the property
# that the fused loop matches it bit for bit.
# ---------------------------------------------------------------------------


class ReferenceOOO:
    """The out-of-order model one event at a time: ``busy`` per fetch
    or software TLB walk, ``stall`` per service record."""

    def __init__(self):
        self.busy_cycles = 0.0
        self.kernel_busy_cycles = 0.0
        self.stall_cycles = [0.0] * NUM_STALL_CLASSES
        self.now = 0.0
        self.outstanding = []
        self.last_completion = 0.0

    def busy(self, cycles, kernel):
        c = cycles / OutOfOrderCPU.ISSUE_SPEEDUP
        self.busy_cycles += c
        if kernel:
            self.kernel_busy_cycles += c
        self.now += c

    def stall(self, cycles, klass, dependent, is_instr):
        now = self.now
        if is_instr:
            stall = cycles * (1.0 - OutOfOrderCPU.FRONTEND_HIDE)
            self.now = now + stall
            self.stall_cycles[klass] += stall
            self.last_completion = self.now
            return
        outstanding = [t for t in self.outstanding if t > now]
        self.outstanding = outstanding
        issue = now
        if dependent and self.last_completion > issue:
            issue = self.last_completion
        if len(outstanding) >= OutOfOrderCPU.MSHRS:
            earliest = min(outstanding)
            outstanding.remove(earliest)
            issue = max(issue, earliest)
        completion = issue + cycles
        outstanding.append(completion)
        self.last_completion = completion
        stall = completion - now - OutOfOrderCPU.WINDOW_CYCLES
        if stall > 0:
            self.stall_cycles[klass] += stall
            self.now = now + stall

    def charge(self, records, fetches):
        """Merge a quantum: fetches at or before a record's position go
        first (strictly before, for a KERNEL_BUSY record)."""
        fetches = list(fetches)
        for pos, cycles, klass, dep, is_instr in records:
            while fetches and (fetches[0][0] < pos or (
                    fetches[0][0] == pos and klass != KERNEL_BUSY)):
                self.busy(INSTRS_PER_ILINE, fetches.pop(0)[1])
            if klass == KERNEL_BUSY:
                self.busy(cycles, True)
            else:
                self.stall(cycles, klass, dep, is_instr)
        for _, kernel in fetches:
            self.busy(INSTRS_PER_ILINE, kernel)

    def reset(self):
        self.busy_cycles = 0.0
        self.kernel_busy_cycles = 0.0
        self.stall_cycles = [0.0] * NUM_STALL_CLASSES


#: Figure-3-like latencies: L2 hits inside the window, local, remote
#: and dirty misses beyond it, software TLB walks.
LATENCIES = [0, 12, 15, 21, 25, 30, 75, 100, 150, 175, 275, 375, 1000]


#: Latencies the window hides: a burst of them saturates the MSHRs.
SHORT = [0, 12, 15, 21]


@st.composite
def quantum(draw):
    """One quantum: records and fetches at sorted positions, with
    ties between them.  A burst quantum is nine or more data misses
    the window hides, which saturates the MSHRs."""
    n = draw(st.integers(1, 40))
    burst = draw(st.booleans())
    records = []
    for pos in sorted(draw(st.lists(st.integers(0, n), min_size=9 * burst,
                                    max_size=30))):
        if burst:
            records.append((pos, draw(st.sampled_from(SHORT)), STALL_L2_HIT,
                            draw(st.booleans()), False))
        elif draw(st.integers(0, 9)) == 0:
            records.append((pos, draw(st.sampled_from([50, 63])),
                            KERNEL_BUSY, False, False))
        else:
            records.append((pos, draw(st.sampled_from(LATENCIES)),
                            draw(st.integers(0, NUM_STALL_CLASSES - 1)),
                            draw(st.booleans()), draw(st.integers(0, 3)) == 0))
    fetches = [(pos, draw(st.booleans())) for pos in
               sorted(draw(st.lists(st.integers(0, n), max_size=20)))]
    return records, fetches


@settings(max_examples=200, deadline=None)
@given(stream=st.lists(st.tuples(st.integers(0, 1), quantum()),
                       min_size=1, max_size=12),
       warmup=st.integers(0, 12))
def test_fused_loop_matches_the_per_event_model(stream, warmup):
    """Two CPUs share a stream of quanta, with a warmup reset of both
    partway: every busy, stall and pipeline value is bit-identical."""
    fused = [OutOfOrderCPU(i) for i in range(2)]
    ref = [ReferenceOOO() for _ in range(2)]
    for q, (c, (records, fetches)) in enumerate(stream):
        if q == warmup:
            for cpu in fused + ref:
                cpu.reset()
        charge(fused[c], records, fetches)
        ref[c].charge(records, fetches)
    for cpu, want in zip(fused, ref):
        assert cpu._now == want.now
        assert cpu._outstanding == want.outstanding
        assert cpu._last_completion == want.last_completion
        assert cpu.busy_cycles == want.busy_cycles
        assert cpu.kernel_busy_cycles == want.kernel_busy_cycles
        assert cpu.stall_cycles == want.stall_cycles


def test_mshr_saturation_is_matched():
    """A burst of misses the window hides, longer than the MSHRs: from
    the ninth on, each waits for the earliest to return."""
    records = [(pos, 21, STALL_L2_HIT, False, False)
               for pos in range(3 * OutOfOrderCPU.MSHRS)]
    cpu = charge(OutOfOrderCPU(), records)
    ref = ReferenceOOO()
    ref.charge(records, [])
    assert len(cpu._outstanding) == OutOfOrderCPU.MSHRS
    assert cpu._now > 0
    assert (cpu._now, cpu.stall_cycles) == (ref.now, ref.stall_cycles)

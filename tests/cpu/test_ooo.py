"""Tests for the out-of-order CPU's overlap behaviour."""

from repro.cpu.events import STALL_L2_HIT, STALL_LOCAL, STALL_REMOTE_DIRTY
from repro.cpu.ooo import OutOfOrderCPU


def test_busy_is_scaled_by_issue_speedup():
    cpu = OutOfOrderCPU()
    cpu.busy(OutOfOrderCPU.ISSUE_SPEEDUP * 10, False)
    assert abs(cpu.busy_cycles - 10) < 1e-9


def test_each_miss_costs_less_than_its_latency():
    """The window shaves WINDOW_CYCLES off every independent miss."""
    one = OutOfOrderCPU()
    one.stall(100, STALL_LOCAL)
    assert one.now == 100 - OutOfOrderCPU.WINDOW_CYCLES
    two = OutOfOrderCPU()
    two.stall(100, STALL_LOCAL)
    two.stall(100, STALL_LOCAL)
    assert two.now - one.now < 100


def test_dependent_misses_serialize():
    indep = OutOfOrderCPU()
    indep.stall(100, STALL_LOCAL)
    indep.stall(100, STALL_LOCAL, dependent=False)
    dep = OutOfOrderCPU()
    dep.stall(100, STALL_LOCAL)
    dep.stall(100, STALL_LOCAL, dependent=True)
    # The dependent load waits for the first miss to return, costing
    # (at least) the window's worth of extra serialization.
    assert dep.now >= indep.now + OutOfOrderCPU.WINDOW_CYCLES


def test_window_hides_short_latency_completely():
    cpu = OutOfOrderCPU()
    cpu.stall(OutOfOrderCPU.WINDOW_CYCLES - 1, STALL_L2_HIT)
    assert cpu.now == 0
    assert cpu.breakdown().l2_hit == 0


def test_long_latency_stalls_beyond_window():
    cpu = OutOfOrderCPU()
    cpu.stall(200, STALL_REMOTE_DIRTY)
    assert cpu.now == 200 - OutOfOrderCPU.WINDOW_CYCLES


def test_instruction_miss_hides_fixed_fraction():
    cpu = OutOfOrderCPU()
    cpu.stall(100, STALL_LOCAL, is_instr=True)
    expected = 100 * (1 - OutOfOrderCPU.FRONTEND_HIDE)
    assert abs(cpu.now - expected) < 1e-9
    assert abs(cpu.breakdown().local_stall - expected) < 1e-9


def test_instruction_hiding_preserves_latency_ratios():
    """Key Section-7 property: I-side stalls scale linearly with latency."""
    a, b = OutOfOrderCPU(), OutOfOrderCPU()
    a.stall(25, STALL_L2_HIT, is_instr=True)
    b.stall(15, STALL_L2_HIT, is_instr=True)
    assert abs(a.now / b.now - 25 / 15) < 1e-9


def test_mshr_limit_throttles_unbounded_overlap():
    cpu = OutOfOrderCPU()
    for _ in range(OutOfOrderCPU.MSHRS + 4):
        cpu.stall(100, STALL_LOCAL)
    # With only MSHRS outstanding slots, 12 misses cannot all overlap.
    assert cpu.now > 100


def test_busy_between_misses_reduces_overlap_pressure():
    burst = OutOfOrderCPU()
    burst.stall(100, STALL_LOCAL)
    burst.stall(100, STALL_LOCAL, dependent=True)
    spaced = OutOfOrderCPU()
    spaced.stall(100, STALL_LOCAL)
    spaced.busy(160, False)
    spaced.stall(100, STALL_LOCAL, dependent=True)
    # The spaced version did 160/ISSUE_SPEEDUP busy cycles of useful
    # work; total time grows, but stall time shrinks.
    assert spaced.breakdown().local_stall < burst.breakdown().local_stall


def test_drain_completes_outstanding():
    cpu = OutOfOrderCPU()
    cpu.stall(1000, STALL_LOCAL)
    before = cpu.now
    cpu.drain()
    assert cpu.now >= before
    cpu.drain()  # idempotent


def test_ooo_never_slower_than_inorder_on_data():
    """For any data-miss sequence the OOO core is at least as fast."""
    seq = [(100, False), (25, False), (275, True), (25, False), (100, False)]
    ooo = OutOfOrderCPU()
    for lat, dep in seq:
        ooo.busy(8, False)
        ooo.stall(lat, STALL_LOCAL, dependent=dep)
    # An in-order core stalls for every miss in full.
    assert ooo.now < sum(8 + lat for lat, _ in seq)


def test_reset_keeps_pipeline_position():
    cpu = OutOfOrderCPU()
    cpu.busy(50, False)
    now = cpu.now
    cpu.reset()
    assert cpu.now == now          # pipeline does not rewind
    assert cpu.breakdown().total == 0  # statistics do

"""The out-of-order timing model and the packed trace-event encoding."""

from repro.cpu.events import (
    FLAG_DEPENDENT,
    FLAG_INSTR,
    FLAG_KERNEL,
    FLAG_WRITE,
    STALL_L2_HIT,
    STALL_LOCAL,
    STALL_REMOTE_CLEAN,
    STALL_REMOTE_DIRTY,
    decode,
    encode,
)
from repro.cpu.ooo import OutOfOrderCPU

__all__ = [
    "FLAG_DEPENDENT",
    "FLAG_INSTR",
    "FLAG_KERNEL",
    "FLAG_WRITE",
    "STALL_L2_HIT",
    "STALL_LOCAL",
    "STALL_REMOTE_CLEAN",
    "STALL_REMOTE_DIRTY",
    "decode",
    "encode",
    "OutOfOrderCPU",
]

"""Encoded memory-reference events and stall classes.

Trace references are packed into single integers for compactness:
``(line_number << 4) | flags``.  The flag bits are:

* ``WRITE``     — the reference is a store;
* ``INSTR``     — instruction fetch (line-granularity);
* ``KERNEL``    — executed in kernel mode (for the 25 % kernel check);
* ``DEPENDENT`` — the load heads an address-dependent chain and cannot
  be overlapped with the previous outstanding miss by an OOO core.
"""

from __future__ import annotations

FLAG_WRITE = 1
FLAG_INSTR = 2
FLAG_KERNEL = 4
FLAG_DEPENDENT = 8

FLAG_BITS = 4
FLAG_MASK = (1 << FLAG_BITS) - 1


def encode(line: int, write: bool = False, instr: bool = False,
           kernel: bool = False, dependent: bool = False) -> int:
    """Pack a reference into its integer trace encoding."""
    flags = 0
    if write:
        flags |= FLAG_WRITE
    if instr:
        flags |= FLAG_INSTR
    if kernel:
        flags |= FLAG_KERNEL
    if dependent:
        flags |= FLAG_DEPENDENT
    return (line << FLAG_BITS) | flags


def decode(ref: int) -> tuple:
    """Unpack a trace integer into (line, write, instr, kernel, dependent)."""
    flags = ref & FLAG_MASK
    return (
        ref >> FLAG_BITS,
        bool(flags & FLAG_WRITE),
        bool(flags & FLAG_INSTR),
        bool(flags & FLAG_KERNEL),
        bool(flags & FLAG_DEPENDENT),
    )


# Stall classes, used as indices into per-CPU stall accumulators.
STALL_L2_HIT = 0
STALL_LOCAL = 1
STALL_REMOTE_CLEAN = 2
STALL_REMOTE_DIRTY = 3
NUM_STALL_CLASSES = 4

#: Not a stall: the class of a timing record that is kernel busy time
#: (a software TLB walk).
KERNEL_BUSY = -1

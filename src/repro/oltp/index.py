"""B+-tree indexes over the TPC-B tables.

Oracle reaches TPC-B rows through B-tree indexes, and that access path
matters for memory behaviour: the root and upper branch blocks are
extremely hot (cached everywhere, read-shared), the leaves are as
random as the rows they point to, and every step of the descent is an
address-dependent load — the pointer-chasing that makes OLTP hard for
out-of-order cores (paper Section 7).

TPC-B's primary keys are dense (``0..n-1``) and never change, so the
engine's indexes are :class:`ImplicitIndex`: a B+-tree bulk-loaded
bottom-up from the sorted keys, whose descent is computed from the key
count and fanout instead of stored.  Its nodes map one-to-one onto
database blocks in a dedicated index segment, so the engine can trace
every block a descent touches.  The tests check it block for block
against a reference B+-tree that is built, searched and validated node
by node (``tests/oltp/bplustree.py``).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Tuple

#: Maximum keys per node: a 2 KB block of 16-byte (key, pointer) pairs.
DEFAULT_FANOUT = 128


class ImplicitIndex:
    """A bulk-loaded B+-tree over the keys ``0..n-1``, never built.

    The bulk-loaded tree over ``(k, k) for k in range(n)`` is fixed by
    ``n`` and ``fanout``: key ``k`` sits in leaf ``k // fanout``, node
    ``i`` of a level has parent ``i // fanout``, and blocks are numbered
    breadth-first, root first.  So a key's descent path, the tree's
    ``height`` and its ``num_blocks`` are arithmetic.
    """

    def __init__(self, n: int, fanout: int = DEFAULT_FANOUT):
        if fanout < 3:
            raise ValueError("fanout must be at least 3")
        if n < 1:
            raise ValueError("an implicit index needs at least one key")
        self.n = n
        widths = [-(-n // fanout)]  # nodes per level, leaves first
        while widths[-1] > 1:
            widths.append(-(-widths[-1] // fanout))
        widths.reverse()
        self.height = len(widths)
        self.num_blocks = sum(widths)
        # Per level, root first: (first block, keys under one node).
        self._levels = tuple(
            (first, fanout ** (self.height - depth))
            for depth, first in enumerate(accumulate([0] + widths[:-1]))
        )

    def path(self, key: int) -> Tuple[int, ...]:
        """Block numbers a descent to ``key`` touches, root first."""
        if not 0 <= key < self.n:
            raise KeyError(f"key {key} not in an index of {self.n} keys")
        return tuple(first + key // span for first, span in self._levels)

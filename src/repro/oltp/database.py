"""The TPC-B database proper: segments, rows, balances, history.

This is a genuine (if small) banking database: balances live in numpy
arrays, updates really happen, and the invariants the TPC-B consistency
conditions require — branch balance equals the sum of its tellers'
balance changes equals the sum of its accounts' changes, one history
row per transaction — hold at all times and are asserted in tests.

The database also owns the *segment layout*: every table maps to a
contiguous range of global block numbers, which the buffer pool and
tracer use to place rows in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.oltp.index import ImplicitIndex
from repro.oltp.schema import TpcbScale


@dataclass(frozen=True)
class SegmentLayout:
    """Global block-number ranges for each TPC-B table and index."""

    account_base: int
    teller_base: int
    branch_base: int
    history_base: int
    history_blocks: int
    account_index_base: int = 0
    account_index_blocks: int = 0
    teller_index_base: int = 0
    teller_index_blocks: int = 0
    branch_index_base: int = 0
    branch_index_blocks: int = 0

    @property
    def total_blocks(self) -> int:
        return self.branch_index_base + self.branch_index_blocks


class TpcbDatabase:
    """In-memory TPC-B tables with real balance arithmetic."""

    #: History segment capacity in blocks; a circular window is enough
    #: because TPC-B only ever appends and never reads history back.
    HISTORY_WINDOW_BLOCKS = 256

    def __init__(self, scale: TpcbScale):
        self.scale = scale
        self.account_balance = np.zeros(scale.accounts, dtype=np.int64)
        self.teller_balance = np.zeros(scale.tellers, dtype=np.int64)
        self.branch_balance = np.zeros(scale.branches, dtype=np.int64)
        self.history_count = 0
        a = scale.account_blocks
        t = scale.teller_blocks
        b = scale.branch_blocks
        history_base = a + t + b

        # Primary-key B+-tree indexes, as Oracle reaches these rows.
        self.account_index = ImplicitIndex(scale.accounts)
        self.teller_index = ImplicitIndex(scale.tellers)
        self.branch_index = ImplicitIndex(scale.branches)

        aidx_base = history_base + self.HISTORY_WINDOW_BLOCKS
        tidx_base = aidx_base + self.account_index.num_blocks
        bidx_base = tidx_base + self.teller_index.num_blocks
        self.layout = SegmentLayout(
            account_base=0,
            teller_base=a,
            branch_base=a + t,
            history_base=history_base,
            history_blocks=self.HISTORY_WINDOW_BLOCKS,
            account_index_base=aidx_base,
            account_index_blocks=self.account_index.num_blocks,
            teller_index_base=tidx_base,
            teller_index_blocks=self.teller_index.num_blocks,
            branch_index_base=bidx_base,
            branch_index_blocks=self.branch_index.num_blocks,
        )

    # -- block addressing ----------------------------------------------------

    def account_block(self, account_id: int) -> Tuple[int, int]:
        """(global block id, byte offset) of an account row."""
        blk, off = self.scale.account_location(account_id)
        return self.layout.account_base + blk, off

    def teller_block(self, teller_id: int) -> Tuple[int, int]:
        blk, off = self.scale.teller_location(teller_id)
        return self.layout.teller_base + blk, off

    def branch_block(self, branch_id: int) -> Tuple[int, int]:
        blk, off = self.scale.branch_location(branch_id)
        return self.layout.branch_base + blk, off

    def lookup_row(self, table: str, row_id: int) -> Tuple[int, int, Tuple[int, ...]]:
        """Find a row through its index, the way the engine does.

        Returns (global block, byte offset, index blocks touched) —
        the index path is what the tracer charges for the descent.
        Raises KeyError for a missing row, as a real index would.
        """
        if table == "account":
            index, base, locate = (self.account_index,
                                   self.layout.account_index_base, self.account_block)
        elif table == "teller":
            index, base, locate = (self.teller_index,
                                   self.layout.teller_index_base, self.teller_block)
        elif table == "branch":
            index, base, locate = (self.branch_index,
                                   self.layout.branch_index_base, self.branch_block)
        else:
            raise KeyError(f"no index on table {table!r}")
        try:
            path = index.path(row_id)
        except KeyError:
            raise KeyError(f"{table} row {row_id} not found") from None
        block, offset = locate(row_id)
        return block, offset, tuple(base + b for b in path)

    def history_block(self, history_row: int) -> Tuple[int, int]:
        """(global block id, byte offset) of history row ``history_row``.

        The history segment is a circular window: row numbers keep
        growing but block numbers wrap, modelling Oracle's reuse of
        extents after checkpoints.
        """
        rows = self.scale.history_rows_per_block
        blk = (history_row // rows) % self.layout.history_blocks
        off = (history_row % rows) * self.scale.history_row_bytes
        return self.layout.history_base + blk, off

    # -- row operations --------------------------------------------------------

    def apply_account(self, account_id: int, delta: int) -> int:
        """Apply the balance delta; returns the new balance."""
        self.account_balance[account_id] += delta
        return int(self.account_balance[account_id])

    def apply_teller(self, teller_id: int, delta: int) -> int:
        self.teller_balance[teller_id] += delta
        return int(self.teller_balance[teller_id])

    def apply_branch(self, branch_id: int, delta: int) -> int:
        self.branch_balance[branch_id] += delta
        return int(self.branch_balance[branch_id])

    def append_history(self) -> int:
        """Record one history row; returns its row number."""
        row = self.history_count
        self.history_count += 1
        return row

    # -- consistency ------------------------------------------------------------

    def check_consistency(self) -> None:
        """TPC-B consistency conditions (raises AssertionError on breach).

        The paper's transaction updates the branch *the customer
        belongs to* (Section 2.1), so per-branch account sums must
        equal the branch balance.  Tellers conserve money globally but
        not per branch, because 15 % of accounts are remote from the
        submitting teller's branch.
        """
        total_a = int(self.account_balance.sum())
        total_t = int(self.teller_balance.sum())
        total_b = int(self.branch_balance.sum())
        assert total_a == total_t == total_b, (
            f"balance conservation violated: accounts={total_a} "
            f"tellers={total_t} branches={total_b}"
        )
        for branch in range(self.scale.branches):
            a0 = branch * self.scale.accounts_per_branch
            a1 = a0 + self.scale.accounts_per_branch
            asum = int(self.account_balance[a0:a1].sum())
            bsum = int(self.branch_balance[branch])
            assert asum == bsum, f"branch {branch}: account sum {asum} != {bsum}"

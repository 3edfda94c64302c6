"""Tests for the TPC-B database: balances, layout, consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oltp.database import TpcbDatabase
from repro.oltp.schema import BLOCK_SIZE, TpcbScale
from tests.oltp.bplustree import BPlusTree


def make(scale=64):
    return TpcbDatabase(TpcbScale.paper(scale))


class TestSegments:
    def test_segments_are_disjoint_and_ordered(self):
        db = make()
        lay = db.layout
        assert lay.account_base == 0
        assert lay.account_base < lay.teller_base < lay.branch_base < lay.history_base

    def test_history_wraps_in_window(self):
        db = make()
        rows = db.scale.history_rows_per_block
        window = db.layout.history_blocks
        blk_first, _ = db.history_block(0)
        blk_wrapped, _ = db.history_block(rows * window)
        assert blk_first == blk_wrapped

    def test_block_addressing_within_segments(self):
        db = make()
        blk, off = db.account_block(0)
        assert blk == db.layout.account_base and off == 0
        blk, _ = db.teller_block(0)
        assert blk == db.layout.teller_base
        blk, _ = db.branch_block(0)
        assert blk == db.layout.branch_base


class TestIndexes:
    TABLES = ("account", "teller", "branch")

    def rows(self, db, table):
        return {"account": db.scale.accounts, "teller": db.scale.tellers,
                "branch": db.scale.branches}[table]

    @pytest.mark.parametrize("table", TABLES)
    def test_lookup_row_matches_bulk_loaded_tree(self, table):
        db = make(scale=256)
        layout = db.layout
        locate = getattr(db, table + "_block")
        pairs = []
        for rid in range(self.rows(db, table)):
            blk, off = locate(rid)
            pairs.append((rid, blk * BLOCK_SIZE + off))
        tree = BPlusTree.build(pairs)
        base = getattr(layout, table + "_index_base")
        assert getattr(layout, table + "_index_blocks") == tree.num_blocks
        for rid in range(0, len(pairs), 7):
            value, path = tree.lookup(rid)
            assert db.lookup_row(table, rid) == (
                value // BLOCK_SIZE, value % BLOCK_SIZE,
                tuple(base + b for b in path))

    @pytest.mark.parametrize("table", TABLES)
    def test_lookup_row_rejects_missing_rows(self, table):
        db = make()
        for rid in (-1, self.rows(db, table)):
            with pytest.raises(KeyError):
                db.lookup_row(table, rid)

    def test_lookup_row_rejects_unindexed_table(self):
        with pytest.raises(KeyError):
            make().lookup_row("history", 0)


class TestBalances:
    def test_apply_account(self):
        db = make()
        assert db.apply_account(5, 100) == 100
        assert db.apply_account(5, -40) == 60

    def test_apply_all_three(self):
        db = make()
        db.apply_account(1, 10)
        db.apply_teller(2, 10)
        db.apply_branch(0, 10)
        assert db.account_balance[1] == 10
        assert db.teller_balance[2] == 10
        assert db.branch_balance[0] == 10

    def test_history_count_monotonic(self):
        db = make()
        assert db.append_history() == 0
        assert db.append_history() == 1
        assert db.history_count == 2


class TestConsistency:
    def test_fresh_database_is_consistent(self):
        make().check_consistency()

    def test_consistent_after_matched_updates(self):
        db = make()
        aid = 7
        branch = db.scale.branch_of_account(aid)
        db.apply_account(aid, 500)
        db.apply_teller(3, 500)
        db.apply_branch(branch, 500)
        db.check_consistency()

    def test_detects_unbalanced_branch(self):
        db = make()
        db.apply_account(0, 500)
        db.apply_teller(0, 500)
        db.apply_branch(1, 500)  # wrong branch: account 0 is branch 0
        with pytest.raises(AssertionError):
            db.check_consistency()

    def test_detects_global_imbalance(self):
        db = make()
        db.apply_account(0, 500)
        with pytest.raises(AssertionError):
            db.check_consistency()

    @given(st.lists(
        st.tuples(st.integers(0, 999), st.integers(0, 399),
                  st.integers(-9999, 9999)),
        max_size=60,
    ))
    @settings(max_examples=40, deadline=None)
    def test_random_matched_updates_stay_consistent(self, txns):
        db = make(scale=256)
        naccts = db.scale.accounts
        for acct, teller, delta in txns:
            acct %= naccts
            branch = db.scale.branch_of_account(acct)
            db.apply_account(acct, delta)
            db.apply_teller(teller, delta)
            db.apply_branch(branch, delta)
            db.append_history()
        db.check_consistency()
        assert db.history_count == len(txns)

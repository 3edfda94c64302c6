"""Unit and property tests for the B+-tree index and its reference tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oltp.index import ImplicitIndex
from tests.oltp.bplustree import BPlusTree, Node


class TestBulkLoad:
    def test_empty(self):
        t = BPlusTree.build([])
        assert len(t) == 0
        assert t.lookup(5) == (None, [0])

    def test_single_leaf(self):
        t = BPlusTree.build([(i, i * 2) for i in range(10)], fanout=16)
        assert t.height == 1
        assert t.num_blocks == 1
        assert t.lookup(7) == (14, [0])

    def test_two_levels(self):
        t = BPlusTree.build([(i, i) for i in range(100)], fanout=16)
        assert t.height == 2
        t.check_invariants()

    def test_deep_tree(self):
        # 1000 keys at fanout 8: 125 leaves -> 16 -> 2 -> root = height 4.
        t = BPlusTree.build([(i, -i) for i in range(1000)], fanout=8)
        assert t.height == 4
        t.check_invariants()
        for key in (0, 1, 511, 999):
            value, path = t.lookup(key)
            assert value == -key
            assert len(path) == 4
            assert path[0] == 0  # root is block 0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BPlusTree.build([(2, 0), (1, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            BPlusTree.build([(1, 0), (1, 1)])

    def test_rejects_tiny_fanout(self):
        with pytest.raises(ValueError):
            BPlusTree(fanout=2)

    def test_every_key_findable(self):
        keys = list(range(0, 5000, 3))
        t = BPlusTree.build([(k, k + 1) for k in keys], fanout=32)
        for k in keys:
            assert t.lookup(k)[0] == k + 1

    def test_absent_keys_return_none(self):
        t = BPlusTree.build([(k, k) for k in range(0, 100, 2)], fanout=8)
        for k in range(1, 100, 2):
            value, path = t.lookup(k)
            assert value is None
            assert len(path) == t.height

    def test_block_numbering_breadth_first(self):
        t = BPlusTree.build([(i, i) for i in range(200)], fanout=8)
        # Root block 0; each level's blocks contiguous and increasing.
        assert t.root.block == 0
        blocks = set()
        queue = [t.root]
        while queue:
            node = queue.pop()
            assert node.block not in blocks
            blocks.add(node.block)
            if not node.leaf:
                queue.extend(node.children)
        assert blocks == set(range(t.num_blocks))


class TestRangeScan:
    def test_scan_inclusive(self):
        t = BPlusTree.build([(i, i * 10) for i in range(50)], fanout=8)
        assert t.range_scan(10, 13) == [(10, 100), (11, 110), (12, 120), (13, 130)]

    def test_scan_across_leaves(self):
        t = BPlusTree.build([(i, i) for i in range(100)], fanout=8)
        out = t.range_scan(0, 99)
        assert out == [(i, i) for i in range(100)]

    def test_scan_empty_range(self):
        t = BPlusTree.build([(i, i) for i in range(0, 100, 10)], fanout=8)
        assert t.range_scan(11, 19) == []


class TestInsert:
    def test_insert_into_empty(self):
        t = BPlusTree(fanout=4)
        t.insert(5, 50)
        assert t.lookup(5)[0] == 50
        t.check_invariants()

    def test_insert_splits_leaf(self):
        t = BPlusTree(fanout=4)
        for k in range(10):
            t.insert(k, k)
            t.check_invariants()
        assert t.height >= 2
        assert len(t) == 10

    def test_insert_duplicate_raises(self):
        t = BPlusTree(fanout=4)
        t.insert(1, 1)
        with pytest.raises(KeyError):
            t.insert(1, 2)

    def test_insert_into_bulk_loaded(self):
        t = BPlusTree.build([(k, k) for k in range(0, 100, 2)], fanout=8)
        for k in range(1, 100, 2):
            t.insert(k, k)
        t.check_invariants()
        assert len(t) == 100
        assert all(t.lookup(k)[0] == k for k in range(100))


@given(st.sets(st.integers(0, 10_000), min_size=1, max_size=400),
       st.sampled_from([4, 8, 32, 128]))
@settings(max_examples=50, deadline=None)
def test_bulk_load_lookup_property(keys, fanout):
    pairs = [(k, k ^ 0xFF) for k in sorted(keys)]
    t = BPlusTree.build(pairs, fanout=fanout)
    t.check_invariants()
    assert len(t) == len(keys)
    for k in keys:
        value, path = t.lookup(k)
        assert value == k ^ 0xFF
        assert len(path) == t.height


@given(st.lists(st.integers(0, 2_000), unique=True, min_size=1, max_size=120),
       st.sampled_from([4, 8]))
@settings(max_examples=40, deadline=None)
def test_incremental_insert_property(keys, fanout):
    t = BPlusTree(fanout=fanout)
    for k in keys:
        t.insert(k, k * 3)
    t.check_invariants()
    assert len(t) == len(keys)
    for k in keys:
        assert t.lookup(k)[0] == k * 3


@given(st.sets(st.integers(0, 3_000), min_size=2, max_size=300))
@settings(max_examples=30, deadline=None)
def test_range_scan_matches_sorted_filter(keys):
    pairs = [(k, k) for k in sorted(keys)]
    t = BPlusTree.build(pairs, fanout=8)
    lo, hi = min(keys), max(keys)
    mid_lo, mid_hi = lo + (hi - lo) // 4, hi - (hi - lo) // 4
    expected = [(k, k) for k in sorted(keys) if mid_lo <= k <= mid_hi]
    assert t.range_scan(mid_lo, mid_hi) == expected


class TestImplicitIndex:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ImplicitIndex(0)
        with pytest.raises(ValueError):
            ImplicitIndex(10, fanout=2)

    def test_path_rejects_missing_keys(self):
        index = ImplicitIndex(100, fanout=8)
        for key in (-1, 100):
            with pytest.raises(KeyError):
                index.path(key)


@given(st.integers(1, 20_000), st.sampled_from([4, 8, 32, 128]))
@settings(max_examples=40, deadline=None)
def test_implicit_index_matches_bulk_loaded_tree(n, fanout):
    tree = BPlusTree.build([(k, k) for k in range(n)], fanout=fanout)
    index = ImplicitIndex(n, fanout)
    assert (index.height, index.num_blocks) == (tree.height, tree.num_blocks)
    for key in range(n):
        assert index.path(key) == tuple(tree.lookup(key)[1])

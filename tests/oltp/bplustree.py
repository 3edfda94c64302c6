"""Reference B+-tree for the index tests.

A real B+-tree, built bottom-up from sorted keys, searched by binary
search within nodes, with insertion, range scans and full invariant
validation.  Nodes map one-to-one onto index blocks, numbered
breadth-first.  ``tests/oltp/test_index.py`` checks
:class:`repro.oltp.index.ImplicitIndex`, whose descent is computed
from the key count and fanout, block for block against it.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.oltp.index import DEFAULT_FANOUT


@dataclass
class Node:
    """One B+-tree node, occupying one index block."""

    leaf: bool
    keys: List[int] = field(default_factory=list)
    # Children for internal nodes (len(keys) + 1), values for leaves.
    children: List["Node"] = field(default_factory=list)
    values: List[int] = field(default_factory=list)
    next_leaf: Optional["Node"] = None
    block: int = -1  # assigned by the tree's block numbering


class BPlusTree:
    """Bulk-loaded B+-tree with per-node block assignment.

    ``lookup`` returns both the value and the *path* of blocks the
    descent touched (root first), the blocks an index descent traces.
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT):
        if fanout < 3:
            raise ValueError("fanout must be at least 3")
        self.fanout = fanout
        self.root: Node = Node(leaf=True)
        self.height = 1
        self.num_blocks = 1
        self._assign_blocks()

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, pairs: List[Tuple[int, int]], fanout: int = DEFAULT_FANOUT) -> "BPlusTree":
        """Bulk-load from (key, value) pairs sorted by key."""
        tree = cls(fanout)
        if not pairs:
            return tree
        keys = [k for k, _ in pairs]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise ValueError("bulk load requires strictly increasing keys")

        # Leaves first.
        leaves: List[Node] = []
        for i in range(0, len(pairs), fanout):
            chunk = pairs[i:i + fanout]
            leaves.append(
                Node(leaf=True, keys=[k for k, _ in chunk],
                     values=[v for _, v in chunk])
            )
        for a, b in zip(leaves, leaves[1:]):
            a.next_leaf = b

        # Stack internal levels until a single root remains.  The
        # separator before each child is the smallest *leaf* key of its
        # subtree, carried up alongside the nodes.
        level: List[Node] = leaves
        mins: List[int] = [leaf.keys[0] for leaf in leaves]
        height = 1
        while len(level) > 1:
            parents: List[Node] = []
            parent_mins: List[int] = []
            for i in range(0, len(level), fanout):
                group = level[i:i + fanout]
                group_mins = mins[i:i + fanout]
                parents.append(
                    Node(leaf=False, keys=group_mins[1:], children=group)
                )
                parent_mins.append(group_mins[0])
            level = parents
            mins = parent_mins
            height += 1
        tree.root = level[0]
        tree.height = height
        tree._assign_blocks()
        return tree

    def _assign_blocks(self) -> None:
        """Number nodes breadth-first: root is block 0, leaves last."""
        counter = 0
        queue = [self.root]
        while queue:
            nxt: List[Node] = []
            for node in queue:
                node.block = counter
                counter += 1
                if not node.leaf:
                    nxt.extend(node.children)
            queue = nxt
        self.num_blocks = counter

    # -- search ------------------------------------------------------------------

    def lookup(self, key: int) -> Tuple[Optional[int], List[int]]:
        """(value or None, list of block numbers touched, root first)."""
        node = self.root
        path = [node.block]
        while not node.leaf:
            node = node.children[bisect_right(node.keys, key)]
            path.append(node.block)
        i = bisect_right(node.keys, key) - 1
        if i >= 0 and node.keys[i] == key:
            return node.values[i], path
        return None, path

    def range_scan(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """All (key, value) pairs with lo <= key <= hi, in order."""
        node = self.root
        while not node.leaf:
            node = node.children[bisect_right(node.keys, lo)]
        out: List[Tuple[int, int]] = []
        while node is not None:
            for k, v in zip(node.keys, node.values):
                if k > hi:
                    return out
                if k >= lo:
                    out.append((k, v))
            node = node.next_leaf
        return out

    # -- insertion (tests/extensions; TPC-B itself never inserts keys) --------------

    def insert(self, key: int, value: int) -> None:
        """Insert a new key, splitting nodes as needed."""
        split = self._insert(self.root, key, value)
        if split is not None:
            sep, right = split
            self.root = Node(leaf=False, keys=[sep], children=[self.root, right])
            self.height += 1
        self._assign_blocks()

    def _insert(self, node: Node, key: int, value: int):
        if node.leaf:
            if key in node.keys:
                raise KeyError(f"duplicate key {key}")
            insort(node.keys, key)
            node.values.insert(node.keys.index(key), value)
            if len(node.keys) <= self.fanout:
                return None
            mid = len(node.keys) // 2
            right = Node(leaf=True, keys=node.keys[mid:], values=node.values[mid:],
                         next_leaf=node.next_leaf)
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            node.next_leaf = right
            return right.keys[0], right

        idx = bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.children) <= self.fanout:
            return None
        mid = len(node.keys) // 2
        sep_up = node.keys[mid]
        right_node = Node(leaf=False, keys=node.keys[mid + 1:],
                          children=node.children[mid + 1:])
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep_up, right_node

    # -- validation ----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural invariants (raises AssertionError on breach)."""
        leaf_depths = set()

        def walk(node: Node, depth: int, lo: Optional[int], hi: Optional[int]):
            assert node.keys == sorted(node.keys), "keys out of order"
            for k in node.keys:
                if lo is not None:
                    assert k >= lo, "key below subtree bound"
                if hi is not None:
                    assert k < hi, "key above subtree bound"
            if node.leaf:
                leaf_depths.add(depth)
                assert len(node.values) == len(node.keys)
            else:
                assert len(node.children) == len(node.keys) + 1
                bounds = [lo] + node.keys + [hi]
                for child, (clo, chi) in zip(
                    node.children, zip(bounds[:-1], bounds[1:])
                ):
                    walk(child, depth + 1, clo, chi)

        walk(self.root, 1, None, None)
        assert len(leaf_depths) == 1, "leaves at unequal depths"
        assert leaf_depths == {self.height}, "height bookkeeping stale"

    def __len__(self) -> int:
        count = 0
        node = self.root
        while not node.leaf:
            node = node.children[0]
        while node is not None:
            count += len(node.keys)
            node = node.next_leaf
        return count

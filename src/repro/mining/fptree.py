"""FP-growth's conditional-tree primitives (Han, Pei, Yin, Mao — paper [15]).

FP-growth mines frequent itemsets without candidate generation: a pattern
base is compressed into a prefix tree (FP-tree) whose header table links all
nodes of one item, and itemsets are grown recursively from each item's
*conditional pattern base*.

The mining engine (:mod:`repro.mining.incremental`) is the only user of these
primitives: it runs this recursion over each suffix item's pattern base in
its canonical tree.  Property tests check the engine against the Apriori
oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence


class _FPNode:
    """One prefix-tree node."""

    __slots__ = ("item", "count", "parent", "children", "link")

    def __init__(self, item: Optional[int], parent: Optional["_FPNode"]) -> None:
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[int, _FPNode] = {}
        self.link: Optional[_FPNode] = None


class _FPTree:
    """FP-tree with header table of per-item node chains."""

    def __init__(self) -> None:
        self.root = _FPNode(None, None)
        self.header: dict[int, _FPNode] = {}
        self._tails: dict[int, _FPNode] = {}

    def insert(self, items: Sequence[int], count: int) -> None:
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item, node)
                node.children[item] = child
                tail = self._tails.get(item)
                if tail is None:
                    self.header[item] = child
                else:
                    tail.link = child
                self._tails[item] = child
            child.count += count
            node = child

    def prefix_paths(self, item: int) -> list[tuple[list[int], int]]:
        """Conditional pattern base of an item: (path, count) pairs."""
        paths: list[tuple[list[int], int]] = []
        node: Optional[_FPNode] = self.header.get(item)
        while node is not None:
            path: list[int] = []
            p = node.parent
            while p is not None and p.item is not None:
                path.append(p.item)
                p = p.parent
            path.reverse()
            if path:
                paths.append((path, node.count))
            node = node.link
        return paths


def build_conditional_tree(
    weighted_transactions: list[tuple[list[int], int]],
    min_count: int,
) -> tuple[_FPTree, dict[int, int]]:
    """Filter infrequent items, order by frequency, build the tree.

    Builds every conditional tree the mining engine
    (:mod:`repro.mining.incremental`) grows itemsets through.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    item_counts: dict[int, int] = defaultdict(int)
    for items, count in weighted_transactions:
        for item in items:
            item_counts[item] += count
    frequent = {i: c for i, c in item_counts.items() if c >= min_count}
    # Descending frequency; ties broken by item id for determinism.
    order = {
        item: rank
        for rank, item in enumerate(
            sorted(frequent, key=lambda i: (-frequent[i], i))
        )
    }
    tree = _FPTree()
    for items, count in weighted_transactions:
        kept = sorted((i for i in set(items) if i in frequent), key=order.__getitem__)
        if kept:
            tree.insert(kept, count)
    return tree, frequent


def mine_conditional(
    tree: _FPTree,
    frequent_items: dict[int, int],
    suffix: frozenset[int],
    min_count: int,
    max_len: int,
    out: dict[frozenset[int], int],
) -> None:
    """Recursively grow ``suffix`` through ``tree``'s pattern bases.

    Writes every frequent ``suffix | {...}`` extension (with its exact
    database count) into ``out``.  The mining engine's per-suffix mining
    calls this with a singleton suffix.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    # Grow from least frequent item upward (standard FP-growth order).
    for item in sorted(frequent_items, key=lambda i: (frequent_items[i], i)):
        new_set = suffix | {item}
        out[frozenset(new_set)] = frequent_items[item]
        if len(new_set) >= max_len:
            continue
        cond = tree.prefix_paths(item)
        if not cond:
            continue
        cond_tree, cond_frequent = build_conditional_tree(cond, min_count)
        if cond_frequent:
            mine_conditional(
                cond_tree, cond_frequent, frozenset(new_set), min_count,
                max_len, out,
            )

"""Tests for repro.mining.fptree: FP-growth's conditional-tree primitives.

The mining engine runs these primitives once per suffix item.  Here they run
as classic whole-database FP-growth (from the empty suffix), so a fault in
the primitives shows apart from the engine's bookkeeping.
"""

import pytest

from repro.mining.counts import min_count_for
from repro.mining.fptree import build_conditional_tree, mine_conditional
from tests.oracles import apriori


def fs(*items):
    return frozenset(items)


def fpgrowth(db, min_support, max_len=6):
    """Whole-database FP-growth composed from the primitives alone."""
    if not db:
        return {}
    min_count = min_count_for(min_support, len(db))
    tree, frequent = build_conditional_tree([(sorted(t), 1) for t in db], min_count)
    out = {}
    if frequent:
        mine_conditional(tree, frequent, frozenset(), min_count, max_len, out)
    return out


DB = [
    fs(1, 2, 5),
    fs(2, 4),
    fs(2, 3),
    fs(1, 2, 4),
    fs(1, 3),
    fs(2, 3),
    fs(1, 3),
    fs(1, 2, 3, 5),
    fs(1, 2, 3),
]


def test_primitives_match_apriori():
    for min_support in (0.1, 2 / 9, 0.5):
        assert fpgrowth(DB, min_support) == apriori(DB, min_support)
    assert fpgrowth(DB, 0.1, max_len=2) == apriori(DB, 0.1, max_len=2)


def test_header_chains_and_prefix_paths():
    tree, frequent = build_conditional_tree([(sorted(t), 1) for t in DB], 2)
    assert frequent == {1: 6, 2: 7, 3: 6, 4: 2, 5: 2}
    # Every node of an item is on its header chain, with the item's count.
    for item, count in frequent.items():
        node, total = tree.header[item], 0
        while node is not None:
            assert node.item == item
            total += node.count
            node = node.link
        assert total == count
    # Item 5's conditional pattern base: the transactions holding it, less 5.
    assert sorted(tree.prefix_paths(5)) == [([2, 1], 1), ([2, 1, 3], 1)]


def test_empty_database():
    tree, frequent = build_conditional_tree([], 1)
    assert frequent == {}
    assert tree.header == {} and tree.root.children == {}
    assert tree.prefix_paths(1) == []
    assert fpgrowth([], 0.1) == {}


def test_invalid_parameters():
    weighted = [(sorted(t), 1) for t in DB]
    with pytest.raises(ValueError):
        build_conditional_tree(weighted, 0)
    tree, frequent = build_conditional_tree(weighted, 2)
    with pytest.raises(ValueError):
        mine_conditional(tree, frequent, frozenset(), 2, 0, {})

"""Tests for repro.mining.incremental.mine_partitions, the counting kernel.

The mining engine calls the kernel with the dirty suffix items of one
refresh.  Here it runs with every item as a suffix, i.e. as whole-database
mining, so a fault in the kernel shows apart from the engine's bookkeeping.
"""

from collections import Counter

import pytest

from repro.mining import incremental
from repro.mining.counts import min_count_for
from repro.mining.incremental import mine_partitions
from repro.util.rng import as_generator
from tests.oracles import apriori


def fs(*items):
    return frozenset(items)


def kernel_itemsets(db, min_support, max_len=6):
    """Whole-database mining: the kernel with every item as a suffix."""
    if not db:
        return {}
    weighted = Counter(db)
    items = set().union(*db)
    min_count = min_count_for(min_support, len(db))
    out = {}
    for part in mine_partitions(weighted, items, min_count, max_len).values():
        out.update(part)
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


def test_kernel_matches_apriori():
    for min_support in (0.1, 2 / 9, 0.5):
        assert kernel_itemsets(DB, min_support) == apriori(DB, min_support)
    for max_len in (1, 2, 3):
        assert kernel_itemsets(DB, 0.1, max_len) == apriori(
            DB, 0.1, max_len=max_len
        )


def test_partitions_hold_their_max_item():
    parts = mine_partitions(Counter(DB), {3, 5, 9}, 2, 6)
    assert set(parts) == {3, 5, 9}
    assert parts[9] == {}  # in no transaction
    assert parts[5] == {fs(5): 2, fs(2, 5): 2, fs(1, 5): 2, fs(1, 2, 5): 2}
    assert parts[3] == {fs(3): 6, fs(1, 3): 4, fs(2, 3): 4, fs(1, 2, 3): 2}
    # Counts are exact Python ints, not NumPy scalars.
    assert all(type(c) is int for c in parts[3].values())


def test_weighted_rows_count_with_multiplicity():
    weighted = {fs(1, 2): 5, fs(2, 3): 2, fs(1, 2, 3): 1}
    got = mine_partitions(weighted, {1, 2, 3}, 3, 6)
    expanded = [t for t, w in weighted.items() for _ in range(w)]
    merged = {s: c for part in got.values() for s, c in part.items()}
    assert merged == apriori(expanded, 3 / len(expanded))


def test_blocks_split_between_prefixes(monkeypatch):
    rng = as_generator(5)
    db = [
        frozenset(int(x) for x in rng.choice(12, size=int(rng.integers(1, 9)), replace=False))
        for _ in range(60)
    ]
    whole = kernel_itemsets(db, 0.05)
    for block in (1, 7, 64):
        monkeypatch.setattr(incremental, "BLOCK_TRIPLES", block)
        assert kernel_itemsets(db, 0.05) == whole == apriori(db, 0.05)


def test_empty_database():
    assert mine_partitions({}, {1, 2}, 1, 6) == {1: {}, 2: {}}
    assert mine_partitions(Counter(DB), set(), 1, 6) == {}
    assert kernel_itemsets([], 0.1) == {}


def test_invalid_parameters():
    with pytest.raises(ValueError):
        mine_partitions(Counter(DB), {1}, 0, 6)
    with pytest.raises(ValueError):
        mine_partitions(Counter(DB), {1}, 2, 0)

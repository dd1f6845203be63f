"""Tests for repro.mining.incremental.mine_partitions, the counting kernel.

The mining engine calls the kernel with the dirty suffix items of one
refresh.  Here it runs with every item as a suffix, i.e. as whole-database
mining, so a fault in the kernel shows apart from the engine's bookkeeping.
The kernel reads the distinct transactions as mask rows with weights
(:func:`rows_of` builds them from a ``transaction -> count`` mapping), and
partitions come back as bit-mask arrays that :func:`mine` reads as
``itemset -> count`` dicts.
"""

from collections import Counter

import numpy as np
import pytest

from repro.mining import incremental
from repro.mining.counts import min_count_for
from repro.mining.incremental import mine_partitions
from repro.mining.rules import mask_items, masks_of, words_for
from repro.util.rng import as_generator
from tests.oracles import apriori


def fs(*items):
    return frozenset(items)


def rows_of(weighted, n_words=1):
    """A ``transaction -> count`` mapping as the kernel's mask rows and weights."""
    return masks_of(list(weighted), n_words), np.array(list(weighted.values()), np.int64)


def mine(weighted, suffixes, min_count, max_len=6, n_words=1):
    """The kernel's partitions as ``suffix -> {itemset: count}`` dicts; an
    itemset's partition is its maximum item."""
    masks, counts = mine_partitions(
        *rows_of(weighted, n_words), suffixes, min_count, max_len
    )
    out = {s: {} for s in suffixes}
    for items, count in zip(mask_items(masks), counts.tolist()):
        out[items[-1]][frozenset(items)] = count
    return out


def kernel_itemsets(db, min_support, max_len=6):
    """Whole-database mining: the kernel with every item as a suffix."""
    if not db:
        return {}
    weighted = Counter(db)
    items = set().union(*db)
    min_count = min_count_for(min_support, len(db))
    out = {}
    for part in mine(weighted, items, min_count, max_len, words_for(max(items, default=0) + 1)).values():
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
    parts = mine(Counter(DB), {3, 5, 9}, 2)
    assert set(parts) == {3, 5, 9}
    assert parts[9] == {}  # in no transaction
    assert parts[5] == {fs(5): 2, fs(2, 5): 2, fs(1, 5): 2, fs(1, 2, 5): 2}
    assert parts[3] == {fs(3): 6, fs(1, 3): 4, fs(2, 3): 4, fs(1, 2, 3): 2}
    # One uint64 mask row per itemset, with exact int64 counts.
    masks, counts = mine_partitions(*rows_of(Counter(DB)), {3, 5, 9}, 2, 6)
    assert masks.shape == (8, 1) and masks.dtype == np.uint64
    assert counts.dtype == np.int64
    assert sorted(items[-1] for items in mask_items(masks)) == [3] * 4 + [5] * 4


def test_weighted_rows_count_with_multiplicity():
    weighted = {fs(1, 2): 5, fs(2, 3): 2, fs(1, 2, 3): 1}
    got = mine(weighted, {1, 2, 3}, 3)
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


def test_rows_of_weight_zero_take_no_part():
    """A row whose weight fell to 0 is a transaction no longer in the window."""
    rows, weights = rows_of(Counter(DB + [fs(1, 2, 7)] * 3))
    weights[-1] = 0
    masks, counts = mine_partitions(rows, weights, range(8), 2, 6)
    got = dict(zip(map(frozenset, mask_items(masks)), counts.tolist()))
    assert got == apriori(DB, 2 / len(DB))


def test_empty_database():
    assert mine({}, {1, 2}, 1) == {1: {}, 2: {}}
    assert mine(Counter(DB), set(), 1) == {}
    assert kernel_itemsets([], 0.1) == {}


def test_invalid_parameters():
    with pytest.raises(ValueError):
        mine_partitions(*rows_of(Counter(DB)), {1}, 0, 6)
    with pytest.raises(ValueError):
        mine_partitions(*rows_of(Counter(DB)), {1}, 2, 0)


@pytest.mark.parametrize("offset", [60, 64, 130])
def test_multi_word_masks(offset):
    """Item ids past one or two 64-bit words mine like small ones."""
    shifted = [frozenset(i + offset * (i % 2) for i in t) for t in DB]
    for min_support in (0.1, 0.5):
        assert kernel_itemsets(shifted, min_support) == apriori(shifted, min_support)
    masks, _ = mine_partitions(*rows_of(Counter(shifted), 4), {3 + offset}, 2, 6)
    assert masks.shape[1] == 4 and {items[-1] for items in mask_items(masks)} == {3 + offset}

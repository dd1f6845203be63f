"""The mining engine's known answers, and the engine against the Apriori oracle.

A one-shot fit fills an empty :class:`IncrementalMiner`; these cases pin its
itemset counts on the classic textbook database (the one Apriori is usually
taught with) and compare it with the paper's cited Apriori, kept as the
test oracle in ``tests/oracles.py``.
"""

import pytest

from repro.mining.incremental import IncrementalMiner
from repro.util.rng import as_generator
from tests.oracles import apriori


def fs(*items):
    return frozenset(items)


def mine(db, min_support, max_len=6):
    """The engine filled from empty, as a one-shot fit does."""
    miner = IncrementalMiner()
    miner.add(db)
    return miner.itemsets(min_support, max_len)


#: Classic textbook database.
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


def test_known_database_counts():
    result = mine(DB, min_support=2 / 9)
    # Hand-checked frequent itemsets (min count 2).
    assert result[fs(1)] == 6
    assert result[fs(2)] == 7
    assert result[fs(3)] == 6
    assert result[fs(4)] == 2
    assert result[fs(5)] == 2
    assert result[fs(1, 2)] == 4
    assert result[fs(1, 3)] == 4
    assert result[fs(2, 3)] == 4
    assert result[fs(1, 5)] == 2
    assert result[fs(2, 5)] == 2
    assert result[fs(1, 2, 3)] == 2
    assert result[fs(1, 2, 5)] == 2
    # Infrequent itemsets absent.
    assert fs(3, 5) not in result
    assert fs(1, 4) not in result


def test_known_database_matches_apriori():
    assert mine(DB, 2 / 9) == apriori(DB, 2 / 9)


@pytest.mark.parametrize("min_support", [0.1, 0.25, 0.5, 0.9])
def test_equivalence_random_databases(min_support):
    rng = as_generator(int(min_support * 100))
    for _ in range(5):
        n_items = int(rng.integers(3, 12))
        db = [
            frozenset(
                int(x)
                for x in rng.choice(
                    n_items, size=int(rng.integers(0, n_items)), replace=False
                )
            )
            for _ in range(int(rng.integers(1, 60)))
        ]
        assert mine(db, min_support) == apriori(db, min_support), db


def test_support_threshold_inclusive():
    # Support exactly at the threshold passes.
    db = [fs(1), fs(1), fs(2), fs(2)]
    result = mine(db, min_support=0.5)
    assert fs(1) in result and fs(2) in result


def test_higher_support_prunes_more():
    low = mine(DB, min_support=0.1)
    high = mine(DB, min_support=0.5)
    assert set(high) <= set(low)
    assert len(high) < len(low)


def test_max_len_caps_itemset_size():
    result = mine(DB, min_support=0.1, max_len=2)
    assert all(len(s) <= 2 for s in result)


def test_max_len_equivalence():
    assert mine(DB, 0.1, max_len=2) == apriori(DB, 0.1, max_len=2)


def test_empty_database():
    assert mine([], min_support=0.1) == {}


def test_single_transaction():
    assert mine([fs(1, 2)], 1.0) == {fs(1): 1, fs(2): 1, fs(1, 2): 1}


def test_empty_transactions_ignored():
    result = mine([fs(), fs(1), fs(1)], min_support=0.5)
    assert result == {fs(1): 2}


def test_apriori_property_holds():
    """Every subset of a frequent itemset is frequent with >= count."""
    result = mine(DB, min_support=0.2)
    for itemset, count in result.items():
        for item in itemset:
            sub = itemset - {item}
            if sub:
                assert sub in result
                assert result[sub] >= count


def test_invalid_parameters():
    for support in (-0.1, 1.5):
        with pytest.raises(ValueError):
            mine(DB, min_support=support)
    with pytest.raises(ValueError):
        mine(DB, min_support=0.1, max_len=0)

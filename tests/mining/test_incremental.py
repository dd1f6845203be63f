"""Tests for repro.mining.incremental — bit-identity under adversarial schedules.

The incremental engine's whole contract is "exactly what from-scratch mining
would have produced, cheaper".  Every test here therefore compares against
the Apriori oracle (:func:`apriori`, :func:`reference_rules`) and the
one-shot :func:`generate_rules` on the same multiset, under schedules
chosen to stress the delta machinery: evict everything and refill, slide
overlapping windows, add and evict the same batch repeatedly, and cross the
support threshold in both directions.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import ThreePhasePredictor
from repro.core.serialize import ruleset_to_dict
from repro.mining import rules
from repro.mining.counts import min_count_for
from repro.mining.incremental import (
    IncrementalMiner,
    IncrementalRuleMiner,
    _unshared,
    generate_rules,
)
from repro.mining.transactions import EventSetDB, build_event_sets
from repro.obs import MetricsRegistry, use
from repro.ras.store import EventStore
from repro.synth.generator import LogGenerator
from repro.synth.profiles import anl_profile
from repro.util.rng import as_generator
from repro.util.timeutil import MINUTE
from tests.oracles import apriori, reference_rules


def fs(*items):
    return frozenset(items)


def random_db(rng, n_items=10, max_rows=40):
    """A random transaction list (may include empty transactions)."""
    return [
        frozenset(
            int(x)
            for x in rng.choice(
                n_items, size=int(rng.integers(0, n_items)), replace=False
            )
        )
        for _ in range(int(rng.integers(0, max_rows)))
    ]


def assert_matches_scratch(miner, min_support, max_len=6):
    """Incremental itemsets must equal the Apriori oracle's exactly."""
    current = [
        t for t, w in miner.transaction_counts().items() for _ in range(w)
    ]
    got = miner.itemsets(min_support, max_len)
    assert got == apriori(current, min_support, max_len=max_len)


# ---------------------------------------------------------------------- #
# IncrementalMiner: multiset maintenance
# ---------------------------------------------------------------------- #


def test_tree_add_remove_roundtrip():
    """Adding and evicting the same weighted batches restores an empty
    miner: no transaction, item count or itemset is left behind."""
    miner = IncrementalMiner()
    miner.add([fs(1, 2, 3)] * 2 + [fs(1, 2)])
    assert_matches_scratch(miner, 0.3)
    miner.evict([fs(1, 2, 3)] * 2)
    miner.evict([fs(1, 2)])
    assert miner.n_transactions == 0
    assert miner.transaction_counts() == {}
    assert miner.itemsets(0.1) == {}


def test_tree_remove_missing_raises_and_leaves_state_intact():
    """An evict of a transaction, or a multiplicity, that is not present
    raises and leaves the multiset and its itemsets as they were."""
    miner = IncrementalMiner()
    miner.add([fs(1, 2)])
    with pytest.raises(ValueError):
        miner.evict([fs(1, 3)])
    with pytest.raises(ValueError):
        miner.evict([fs(1, 2)] * 2)  # present, but not with that weight
    assert miner.transaction_counts() == {fs(1, 2): 1}
    assert miner.itemsets(1.0) == {fs(1): 1, fs(2): 1, fs(1, 2): 1}


# ---------------------------------------------------------------------- #
# IncrementalMiner: adversarial schedules vs from-scratch
# ---------------------------------------------------------------------- #


def test_empty_miner_yields_no_itemsets():
    miner = IncrementalMiner()
    assert miner.itemsets(0.1) == {}
    assert miner.n_transactions == 0


def test_single_transaction_window():
    miner = IncrementalMiner()
    miner.add([fs(1, 2)])
    assert_matches_scratch(miner, 1.0)
    assert miner.itemsets(1.0) == {fs(1): 1, fs(2): 1, fs(1, 2): 1}


def test_evict_all_then_refill():
    batch = [fs(1, 2), fs(2, 3), fs(1, 2, 3), fs(3)]
    miner = IncrementalMiner()
    miner.add(batch)
    assert_matches_scratch(miner, 0.25)
    miner.evict(batch)
    assert miner.n_transactions == 0
    assert miner.itemsets(0.25) == {}
    refill = [fs(4, 5), fs(4), fs(4, 5, 6)]
    miner.add(refill)
    assert_matches_scratch(miner, 0.3)


def test_repeated_add_evict_of_same_batch():
    stable = [fs(1, 2), fs(2, 3)] * 3
    churn = [fs(1, 2, 3), fs(3, 4)]
    miner = IncrementalMiner()
    miner.add(stable)
    for _ in range(4):
        miner.add(churn)
        assert_matches_scratch(miner, 0.2)
        miner.evict(churn)
        assert_matches_scratch(miner, 0.2)


def test_overlapping_sliding_windows():
    rng = as_generator(11)
    stream = [
        frozenset(
            int(x)
            for x in rng.choice(8, size=int(rng.integers(1, 5)), replace=False)
        )
        for _ in range(30)
    ]
    miner = IncrementalMiner()
    window = 12
    step = 4
    for start in range(0, len(stream) - window + 1, step):
        prev_start = start - step
        if prev_start < 0:
            miner.add(stream[:window])
        else:
            miner.evict(stream[prev_start:start])
            miner.add(stream[prev_start + window : start + window])
        assert_matches_scratch(miner, 0.15)


def test_support_threshold_boundary_crossings():
    # 10 transactions; item 7 appears in exactly 2 -> support 0.2.
    batch = [fs(1, 7), fs(2, 7)] + [fs(1, 2)] * 8
    miner = IncrementalMiner()
    miner.add(batch)
    at = miner.itemsets(0.2)  # count threshold == support count: included
    assert fs(7) in at
    above = miner.itemsets(0.21)  # raised threshold filters cached partitions
    assert fs(7) not in above
    below = miner.itemsets(0.1)  # lowered threshold forces full re-mine
    assert fs(7) in below and fs(1, 7) in below
    for support in (0.1, 0.2, 0.21, 0.5, 1.0):
        assert_matches_scratch(miner, support)


def test_threshold_raise_reuses_clean_suffixes_exactly():
    batch = [fs(1, 2, 3)] * 5 + [fs(2, 3)] * 3 + [fs(4)] * 2
    miner = IncrementalMiner()
    miner.add(batch)
    low = miner.itemsets(0.2)
    high = miner.itemsets(0.5)  # no delta in between: pure cache filter
    n = miner.n_transactions
    cut = min_count_for(0.5, n)
    assert high == {s: c for s, c in low.items() if c >= cut}
    assert_matches_scratch(miner, 0.5)


def test_randomized_schedule_matches_scratch():
    rng = as_generator(1234)
    miner = IncrementalMiner()
    live: list[frozenset] = []
    for _ in range(25):
        roll = rng.random()
        if roll < 0.55 or not live:
            batch = random_db(rng, n_items=9, max_rows=12)
            miner.add(batch)
            live.extend(batch)
        else:
            k = int(rng.integers(1, len(live) + 1))
            idx = sorted(
                (int(i) for i in rng.choice(len(live), size=k, replace=False)),
                reverse=True,
            )
            batch = [live.pop(i) for i in idx]
            miner.evict(batch)
        support = float(rng.choice([0.02, 0.05, 0.1, 0.3]))
        assert_matches_scratch(miner, support)


def test_evict_more_than_present_is_atomic():
    miner = IncrementalMiner()
    miner.add([fs(1, 2), fs(2, 3)])
    before = dict(miner.transaction_counts())
    with pytest.raises(ValueError):
        miner.evict([fs(1, 2), fs(1, 2)])  # second copy not present
    assert dict(miner.transaction_counts()) == before
    assert_matches_scratch(miner, 0.5)


def test_mask_width_grows_and_never_shrinks():
    """Items past 63 and 127 widen the table to three words; once they
    leave the window, only the dirty partitions are re-mined."""
    low = [fs(1, 2), fs(1, 3), fs(2, 3), fs(2, 3)]
    high = [fs(1, 70), fs(70, 130)]
    miner = IncrementalMiner()
    miner.add(low)
    assert miner.itemsets(0.3) == apriori(low, 0.3)
    for batch, expected, mined in ((high, low + high, 3), (None, low, 1)):
        if batch:
            miner.add(batch)
        else:
            miner.evict(high)
        registry = MetricsRegistry()
        with use(registry):
            assert miner.itemsets(0.3) == apriori(expected, 0.3)
        assert miner._table[0].shape[1] == 3
        # Only the dirty items present are re-mined; items 2 and 3 are kept.
        assert registry.counters["mining.incremental.suffix_mined"] == mined
        assert registry.counters["mining.incremental.suffix_reused"] == 2


def test_max_len_change_invalidates_cache():
    miner = IncrementalMiner()
    miner.add([fs(1, 2, 3)] * 4)
    short = miner.itemsets(0.2, max_len=2)
    assert fs(1, 2, 3) not in short
    full = miner.itemsets(0.2, max_len=6)
    assert fs(1, 2, 3) in full
    assert_matches_scratch(miner, 0.2, max_len=2)


# ---------------------------------------------------------------------- #
# IncrementalRuleMiner: rule-level bit-identity and snapshots
# ---------------------------------------------------------------------- #

ITEMS = ["warnA", "warnB", "warnC", "fatalX", "fatalY", "noiseZ"]
A, B, C, X, Y, Z = range(6)
FATAL = fs(X, Y)


def make_db(rows):
    return EventSetDB(
        bodies=[fs(*b) for b, _ in rows],
        heads=[fs(*h) for _, h in rows],
        item_names=ITEMS,
        fatal_items=FATAL,
    )


def ruleset_key(rs):
    """Bit-identity key: exact rule order, floats and metadata."""
    return (list(rs.rules), list(rs.item_names), rs.fatal_items)


def assert_rules_match(miner, db):
    """Maintained rules == one-shot fill == Apriori oracle, bit for bit."""
    params = dict(
        min_support=miner.min_support,
        min_confidence=miner.min_confidence,
        max_len=miner.max_len,
        combine=miner.combine,
        prune_generalizations=miner.prune_generalizations,
    )
    incremental = ruleset_key(miner.rules())
    assert incremental == ruleset_key(generate_rules(db, **params))
    assert incremental == ruleset_key(reference_rules(db, **params))


ROWS = [
    ((A, B), (X,)),
    ((A, B), (X,)),
    ((A, B), (Y,)),
    ((C,), (Y,)),
    ((C,), (Y,)),
    ((B, C), (X,)),
    ((), (X,)),
    ((A,), ()),
]


@pytest.mark.parametrize("multiplier", [0, 1])
def test_rules_join_exactly_when_row_keys_collide(monkeypatch, multiplier):
    """A degenerate key polynomial makes many distinct masks share a join
    key; the body lookup and the Step-3 grouping still compare whole rows."""
    monkeypatch.setattr(rules, "KEY_MULTIPLIER", np.uint64(multiplier))
    rng = as_generator(11)
    body_ids, head_ids = [0, 3, 64, 67, 128, 131], [5, 69, 130]
    rows = [
        (
            fs(*rng.choice(body_ids, size=int(rng.integers(0, 4)), replace=False).tolist()),
            fs(*rng.choice(head_ids, size=int(rng.integers(1, 3)), replace=False).tolist()),
        )
        for _ in range(60)
    ]
    db = EventSetDB(
        bodies=[b for b, _ in rows],
        heads=[h for _, h in rows],
        item_names=[f"item{i}" for i in range(140)],
        fatal_items=frozenset(head_ids),
    )
    for combine in (True, False):
        params = dict(min_support=0.03, min_confidence=0.1, max_len=4, combine=combine)
        rs = generate_rules(db, **params)
        assert len(rs) and list(rs.rules) == list(reference_rules(db, **params).rules)


def test_rule_miner_matches_generate_rules():
    db = make_db(ROWS)
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    added, evicted = miner.sync(db)
    assert (added, evicted) == (len(ROWS), 0)
    assert_rules_match(miner, db)


def test_rule_miner_sliding_sync_is_o_delta_and_exact():
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    for start in range(0, 4):
        rows = ROWS[start : start + 5]
        db = make_db(rows)
        added, evicted = miner.sync(db)
        assert added <= len(rows) and evicted <= len(ROWS)
        assert_rules_match(miner, db)
    # Re-sync with no change: zero delta, cached ruleset object reused.
    db = make_db(ROWS[3:8])
    assert miner.sync(db) == (0, 0)
    assert miner.rules() is miner.rules()


def test_rule_miner_zero_delta_reuses_ruleset_object():
    db = make_db(ROWS)
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    miner.sync(db)
    first = miner.rules()
    miner.sync(db)
    assert miner.rules() is first


def test_rule_miner_incompatible_names_resets():
    db = make_db(ROWS)
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    miner.sync(db)
    other = EventSetDB(
        bodies=[fs(A)],
        heads=[fs(X)],
        item_names=["different", *ITEMS[1:]],
        fatal_items=FATAL,
    )
    miner.sync(other)
    assert miner.item_names[0] == "different"
    assert_rules_match(miner, other)


def test_rule_miner_prefix_grown_names_are_compatible():
    db = make_db(ROWS)
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    miner.sync(db)
    grown = EventSetDB(
        bodies=[fs(*b) for b, _ in ROWS],
        heads=[fs(*h) for _, h in ROWS],
        item_names=ITEMS + ["lateW"],
        fatal_items=FATAL,
    )
    assert miner.sync(grown) == (0, 0)  # same transactions, wider table
    assert_rules_match(miner, grown)


def test_rule_miner_zero_delta_label_growth_refreshes_ruleset():
    """A label entering outside every rule window changes no transaction,
    but the learned rule set (and so the snapshot id) carries the table."""
    db = make_db(ROWS)
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    miner.sync(db)
    before = miner.rules()
    grown = EventSetDB(
        bodies=db.bodies,
        heads=db.heads,
        item_names=ITEMS + ["lateW"],
        fatal_items=FATAL,
    )
    assert miner.sync(grown) == (0, 0)
    after = ruleset_to_dict(miner.rules())
    assert after["item_names"] == ITEMS + ["lateW"]
    assert after == ruleset_to_dict(generate_rules(grown, 0.1, 0.2))
    assert ruleset_to_dict(before)["item_names"] == ITEMS
    # A changed fatal set is refreshed the same way.
    refatal = EventSetDB(
        bodies=db.bodies,
        heads=db.heads,
        item_names=grown.item_names,
        fatal_items=fs(X),
    )
    assert miner.sync(refatal) == (0, 0)
    assert_rules_match(miner, refatal)


def test_rule_miner_randomized_windows_match_scratch():
    rng = as_generator(77)
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    stream = [
        (
            tuple(
                int(x)
                for x in rng.choice(
                    [A, B, C, Z], size=int(rng.integers(0, 4)), replace=False
                )
            ),
            tuple(
                int(x)
                for x in rng.choice(
                    [X, Y], size=int(rng.integers(0, 2)), replace=False
                )
            ),
        )
        for _ in range(24)
    ]
    for start in range(0, 16, 3):
        db = make_db(stream[start : start + 8])
        miner.sync(db)
        assert_rules_match(miner, db)


# ---------------------------------------------------------------------- #
# Window alignment in sync
# ---------------------------------------------------------------------- #

window_rows = st.lists(
    st.tuples(
        st.sampled_from([fs(), fs(A), fs(A, B), fs(B, C), fs(C)]),
        st.sampled_from([fs(), fs(X), fs(Y), fs(X, Y)]),
    ),
    max_size=12,
)


@given(window_rows, st.integers(0, 12), window_rows, window_rows)
@settings(max_examples=200, deadline=None)
def test_unshared_transactions_keep_the_multiset_difference(
    old, drop, head, tail
):
    """However the next window relates to the last one (a slide, edits at
    its front, or nothing shared), leaving out the shared run keeps the
    exact multiset difference, and sync lands on the new window."""
    new = head + old[drop:] + tail

    def split(rows):
        return [b for b, _ in rows], [h for _, h in rows]

    def multiset(rows):
        return Counter(b | h for b, h in rows)

    gone, came = _unshared(split(old), split(new))
    assert came - gone == multiset(new) - multiset(old)
    assert gone - came == multiset(old) - multiset(new)
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    miner.sync(make_db(old))
    added, evicted = miner.sync(make_db(new))
    assert miner.miner.transaction_counts() == multiset(new)
    assert added == sum((multiset(new) - multiset(old)).values())
    assert evicted == sum((multiset(old) - multiset(new)).values())


def test_sync_after_direct_window_edits_diffs_the_whole_multiset():
    """Direct edits of the underlying miner change the multiset behind the
    last synced window, so the next sync must not trust the alignment."""
    miner = IncrementalRuleMiner(min_support=0.1, min_confidence=0.2)
    db = make_db(ROWS)
    miner.sync(db)
    miner.miner.add([fs(A, X)])
    assert miner.sync(db) == (0, 1)
    miner.miner.evict([fs(A, B, X)])
    assert miner.sync(db) == (1, 0)
    assert_rules_match(miner, db)


# ---------------------------------------------------------------------- #
# Fixed-seed regression at the lifecycle-retrain shape
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def retrain_stream():
    """The generator's ANL corpus (seed 11, as the retrain benchmark mines),
    Phase-1 compressed and repeated with time shifts into 3,072 events."""
    unique = ThreePhasePredictor().preprocess(
        LogGenerator(anl_profile(), scale=0.05, seed=11).generate().raw
    ).events.to_events()
    span = unique[-1].time - unique[0].time + 1
    stream = [
        ev.with_time(ev.time + k * span) for k in range(4) for ev in unique
    ][:3072]
    return EventStore.from_events_in_memory(stream)


def test_lifecycle_shaped_retrains_match_scratch(retrain_stream):
    """2 h rule window, support 0.01, ``max_len`` 3, and a 2,048-event window
    sliding by 256 events: every maintained refit equals a one-shot fit and
    the Apriori oracle, Step-3 multi-head bodies occur, and partitions are
    reused between refits."""
    params = dict(min_support=0.01, min_confidence=0.2, max_len=3)
    miner = IncrementalRuleMiner(**params)
    registry = MetricsRegistry()
    multi_head = 0
    with use(registry):
        for lo in range(0, len(retrain_stream) - 2048 + 1, 256):
            window = retrain_stream.select(slice(lo, lo + 2048))
            db = build_event_sets(window, 120 * MINUTE)
            miner.sync(db)
            rules = ruleset_key(miner.rules())
            assert rules == ruleset_key(generate_rules(db, **params))
            assert rules == ruleset_key(reference_rules(db, **params))
            multi_head += sum(len(r.heads) > 1 for r in rules[0])
    assert multi_head > 0
    assert registry.counters.get("mining.incremental.suffix_reused", 0) > 0

"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.bgl.locations import LocationKind, format_location, parse_location
from repro.evaluation.crossval import fold_index_ranges
from repro.evaluation.matching import match_warnings
from repro.mining.incremental import (
    IncrementalMiner,
    IncrementalRuleMiner,
    generate_rules,
)
from repro.mining.transactions import EventSetDB
from repro.util.rng import as_generator
from repro.predictors.base import FailureWarning, dedup_warnings
from repro.preprocess.compression import spatial_compress, temporal_compress
from repro.ras.events import RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.logfile import format_event, parse_line
from repro.ras.store import EventStore
from tests.mining.test_kernel import kernel_itemsets
from tests.oracles import apriori, reference_rules

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

locations = st.sampled_from(
    ["R00-M0-N00-C00", "R00-M0-N01-C05", "R00-M1-N02-I00", "R00-M1-L2",
     "R00-M0-S", "R01", "SYSTEM"]
)

entries = st.sampled_from(
    ["alpha event text", "beta event text", "gamma event text",
     "kernel panic: unrecoverable condition detected"]
)


@st.composite
def ras_events(draw):
    return RasEvent(
        time=draw(st.integers(min_value=0, max_value=100_000)),
        location=draw(locations),
        facility=draw(st.sampled_from(list(Facility))),
        severity=draw(st.sampled_from(list(Severity))),
        entry_data=draw(entries),
        job_id=draw(st.integers(min_value=-1, max_value=3)),
    )


event_lists = st.lists(ras_events(), min_size=0, max_size=40)

transactions = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=8), max_size=6),
    min_size=0,
    max_size=30,
)

# ---------------------------------------------------------------------- #
# Miner equivalence and monotonicity
# ---------------------------------------------------------------------- #


def mine(db, min_support):
    """The engine filled from empty, as a one-shot fit does."""
    miner = IncrementalMiner()
    miner.add(db)
    return miner.itemsets(min_support)


@given(transactions, st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_incremental_miner_equivalent_to_scratch(db, min_support):
    """One-shot fill: the engine mines exactly the Apriori oracle's itemsets."""
    assert mine(db, min_support) == apriori(db, min_support)


@given(transactions, st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_apriori_kernel_equivalent(db, min_support):
    """Whole-database mining through the tid-list kernel alone."""
    assert apriori(db, min_support) == kernel_itemsets(db, min_support)


def test_engine_matches_apriori_seeded_grid():
    """Deterministic sweep over database sizes and supports.

    Complements the hypothesis property above with a reproducible grid that
    pins the edge cases the miners treat specially: the empty window, the
    single-transaction window, and a ladder of sizes at each support.
    """
    supports = [0.02, 0.05, 0.1, 0.25, 0.5, 1.0]
    for support in supports:
        assert mine([], support) == apriori([], support) == {}
        single = [frozenset({3, 5})]
        assert mine(single, support) == apriori(single, support)
    rng = as_generator(2026)
    for size in (1, 2, 5, 13, 34, 89):
        n_items = int(rng.integers(3, 14))
        db = [
            frozenset(
                int(x)
                for x in rng.choice(
                    n_items,
                    size=int(rng.integers(0, n_items)),
                    replace=False,
                )
            )
            for _ in range(size)
        ]
        for support in supports:
            assert mine(db, support) == apriori(db, support), (size, support)


@given(
    transactions,
    transactions,
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_incremental_add_evict_restores_scratch(base, extra, min_support):
    """Adding then evicting a batch lands back on the base window's result."""
    miner = IncrementalMiner()
    miner.add(base)
    miner.add(extra)
    assert miner.itemsets(min_support) == apriori(base + extra, min_support)
    miner.evict(extra)
    assert miner.itemsets(min_support) == apriori(base, min_support)


#: Schedule property: body items 0-5, fatal candidates 6-8.
SCHEDULE_ITEMS = [f"item{i}" for i in range(9)]

schedule_rows = st.lists(
    st.tuples(
        st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
        st.frozensets(st.integers(min_value=6, max_value=8), max_size=2),
    ),
    min_size=1,
    max_size=8,
)

schedule_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), schedule_rows),
        st.tuples(st.just("evict_front"), st.integers(min_value=1, max_value=6)),
        st.tuples(
            st.just("evict_any"),
            st.lists(st.integers(min_value=0, max_value=40), max_size=4),
        ),
        st.tuples(
            st.just("threshold"),
            st.tuples(
                st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.35, 0.6]),
                st.integers(min_value=1, max_value=6),
            ),
        ),
        st.tuples(
            st.just("fatal"),
            st.frozensets(st.integers(min_value=5, max_value=8), min_size=1),
        ),
    ),
    min_size=1,
    max_size=12,
)


@given(
    schedule_steps,
    st.sampled_from([0.05, 0.1, 0.2, 0.34]),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_maintained_miner_matches_scratch_under_random_schedules(
    steps, min_support, max_len
):
    """Any schedule of window adds and evicts (from the front and from
    anywhere), threshold and ``max_len`` moves in both directions, and
    fatal-set changes: after every step the maintained itemset table equals
    a fresh fill and Apriori, and ``rules()`` equals a one-shot
    ``generate_rules`` (Step-3 multi-head bodies included)."""
    miner = IncrementalRuleMiner(min_support=min_support, max_len=max_len)
    rows: list[tuple[frozenset[int], frozenset[int]]] = []
    fatal = frozenset({6, 7, 8})
    for op, arg in steps:
        if op == "add":
            rows.extend(arg)
        elif op == "evict_front":
            del rows[:arg]
        elif op == "evict_any":
            for i in sorted({i for i in arg if i < len(rows)}, reverse=True):
                del rows[i]
        elif op == "fatal":
            fatal = arg
        db = EventSetDB(
            bodies=[b for b, _ in rows],
            heads=[h for _, h in rows],
            item_names=SCHEDULE_ITEMS,
            fatal_items=fatal,
        )
        miner.sync(db)
        transactions = db.transactions()
        if op == "threshold":
            support, length = arg
            fresh = IncrementalMiner()
            fresh.add(transactions)
            got = miner.miner.itemsets(support, length)
            assert got == fresh.itemsets(support, length)
            assert got == apriori(transactions, support, max_len=length)
        rules = miner.rules()
        assert list(rules.rules) == list(
            generate_rules(db, min_support, max_len=max_len).rules
        )
        assert rules.fatal_items == fatal
        assert miner.miner.itemsets(min_support, max_len) == apriori(
            transactions, min_support, max_len=max_len
        )


#: Item layouts across mask words: body items, then fatal head items.
#: Ids past 63 and 127 put items in a second and a third 64-bit word.
WIDE_LAYOUTS = [
    ([1, 40, 63, 64, 90, 127], [5, 70, 128]),
    ([64, 65, 100, 127, 128, 150], [66, 129, 191]),
    ([128, 130, 140, 160, 170, 180], [129, 131, 190]),
]

wide_rows = st.lists(
    st.tuples(
        st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
        st.frozensets(st.integers(min_value=0, max_value=2), min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=14,
)


@given(
    st.sampled_from(WIDE_LAYOUTS),
    wide_rows,
    st.sampled_from([0.05, 0.1, 0.2, 0.34]),
    st.sampled_from([0.1, 0.2, 0.5]),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_rules_on_multi_word_masks(
    layout, rows, min_support, min_confidence, max_len, combine, prune
):
    """Item ids at and past 64 and 128 (two- and three-word masks), heads
    of one or two items so that bodies carry several heads, ``max_len`` 1-4
    and ``combine`` / ``prune_generalizations`` on and off: the engine's
    rule set equals the frozenset reference, rule for rule."""
    body_ids, head_ids = layout
    rows = rows + rows[:2]  # repeat bodies, so several heads share them
    db = EventSetDB(
        bodies=[frozenset(body_ids[i] for i in b) for b, _ in rows],
        heads=[frozenset(head_ids[i] for i in h) for _, h in rows],
        item_names=[f"item{i}" for i in range(192)],
        fatal_items=frozenset(head_ids),
    )
    params = dict(
        min_support=min_support,
        min_confidence=min_confidence,
        max_len=max_len,
        combine=combine,
        prune_generalizations=prune,
    )
    assert list(generate_rules(db, **params).rules) == list(
        reference_rules(db, **params).rules
    )


@given(transactions)
@settings(max_examples=40, deadline=None)
def test_apriori_support_monotone_in_threshold(db):
    low = mine(db, 0.1)
    high = mine(db, 0.5)
    assert set(high) <= set(low)


@given(transactions)
@settings(max_examples=40, deadline=None)
def test_apriori_downward_closure(db):
    """The apriori property: subsets of frequent itemsets are as frequent."""
    result = mine(db, 0.15)
    for itemset, count in result.items():
        for item in itemset:
            sub = itemset - {item}
            if sub:
                assert result[sub] >= count


# ---------------------------------------------------------------------- #
# Compression invariants
# ---------------------------------------------------------------------- #


@given(event_lists, st.sampled_from(["temporal", "spatial"]))
@settings(max_examples=60, deadline=None)
def test_compression_idempotent(events, which):
    store = EventStore.from_events(events)
    fn = temporal_compress if which == "temporal" else spatial_compress
    once, _ = fn(store)
    twice, stats = fn(once)
    assert len(twice) == len(once)
    assert stats.removed == 0


@given(event_lists)
@settings(max_examples=60, deadline=None)
def test_compression_never_grows_and_stays_sorted(events):
    store = EventStore.from_events(events)
    out, stats = temporal_compress(store)
    assert len(out) <= len(store)
    assert out.is_time_sorted()
    assert stats.input_records == len(store)
    assert stats.output_records == len(out)


@given(event_lists)
@settings(max_examples=60, deadline=None)
def test_compression_order_invariant(events):
    """Input record order must not change the compressed output."""
    a = EventStore.from_events(events)
    b = EventStore.from_events(list(reversed(events)))
    out_a, _ = temporal_compress(a)
    out_b, _ = temporal_compress(b)
    assert len(out_a) == len(out_b)
    assert list(out_a.times) == list(out_b.times)


@given(event_lists)
@settings(max_examples=60, deadline=None)
def test_compression_preserves_max_severity(events):
    """Compression must never lose the most severe record entirely."""
    store = EventStore.from_events(events)
    if len(store) == 0:
        return
    out, _ = temporal_compress(store)
    assert out.severities.max() == store.severities.max()


# ---------------------------------------------------------------------- #
# Location grammar round-trip
# ---------------------------------------------------------------------- #


@given(
    st.sampled_from(list(LocationKind)),
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=9),
)
@settings(max_examples=120, deadline=None)
def test_location_roundtrip(kind, rack, midplane, nodecard, unit, linkcard):
    code = format_location(
        kind, rack=rack, midplane=midplane, nodecard=nodecard,
        chip=unit, ionode=unit, linkcard=linkcard,
    )
    parts = parse_location(code)
    assert parts["kind"] == kind
    rebuilt = format_location(
        kind,
        rack=parts["rack"],
        midplane=parts["midplane"],
        nodecard=parts["nodecard"],
        chip=parts["chip"],
        ionode=parts["ionode"],
        linkcard=parts["linkcard"],
    )
    assert rebuilt == code


# ---------------------------------------------------------------------- #
# Log line round-trip
# ---------------------------------------------------------------------- #


@given(ras_events())
@settings(max_examples=100, deadline=None)
def test_logline_roundtrip(event):
    assert parse_line(format_event(event)) == event


# ---------------------------------------------------------------------- #
# Warning/metric invariants
# ---------------------------------------------------------------------- #


@st.composite
def warnings_strategy(draw):
    issued = draw(st.integers(min_value=0, max_value=10_000))
    start = issued + draw(st.integers(min_value=0, max_value=100))
    end = start + draw(st.integers(min_value=0, max_value=5_000))
    return FailureWarning(
        issued_at=issued, horizon_start=start, horizon_end=end,
        confidence=draw(st.floats(min_value=0, max_value=1)),
        source=draw(st.sampled_from(["a", "b"])),
        detail=draw(st.sampled_from(["x", "y"])),
    )


@given(st.lists(warnings_strategy(), max_size=30), event_lists)
@settings(max_examples=60, deadline=None)
def test_matching_bounds(warnings, events):
    store = EventStore.from_events(events)
    res = match_warnings(warnings, store)
    m = res.metrics
    assert 0 <= m.tp_warnings <= m.n_warnings == len(warnings)
    assert 0 <= m.covered_fatals <= m.n_fatals == len(store.fatal_events())
    assert 0.0 <= m.precision <= 1.0
    assert 0.0 <= m.recall <= 1.0
    assert 0.0 <= m.f1 <= 1.0


@given(st.lists(warnings_strategy(), max_size=30))
@settings(max_examples=60, deadline=None)
def test_dedup_is_subset_and_idempotent(warnings):
    kept = dedup_warnings(warnings)
    assert len(kept) <= len(warnings)
    assert dedup_warnings(kept) == kept
    # No two kept warnings of the same key overlap actively.
    by_key = {}
    for w in kept:
        key = (w.source, w.detail)
        if key in by_key:
            assert w.issued_at > by_key[key]
        by_key[key] = w.horizon_end


# ---------------------------------------------------------------------- #
# Fold partition
# ---------------------------------------------------------------------- #


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=2, max_value=20))
@settings(max_examples=80, deadline=None)
def test_fold_ranges_partition(n, k):
    if n < k:
        return
    ranges = fold_index_ranges(n, k)
    covered = [i for s, e in ranges for i in range(s, e)]
    assert covered == list(range(n))
    sizes = [e - s for s, e in ranges]
    assert max(sizes) - min(sizes) <= 1

"""Tests for repro.mining.transactions (event-set construction)."""

import numpy as np
import pytest

from repro.mining.transactions import (
    EventSetDB,
    build_event_sets,
    build_tiled_windows,
)
from repro.ras.fields import Facility, Severity
from repro.ras.store import EventStore
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.rng import as_generator
from tests.conftest import make_event


def _labeled(*events):
    return TaxonomyClassifier().classify_store(EventStore.from_events(events))


@pytest.fixture
def chain_store():
    """Two non-fatal precursors, then a fatal, then an isolated fatal."""
    return _labeled(
        make_event(time=100, severity=Severity.INFO,
                   entry="ddr error correction: single bit error corrected by ecc"),
        make_event(time=200, severity=Severity.INFO,
                   entry="interrupt mask register updated for memory unit"),
        make_event(time=400, severity=Severity.FAILURE, facility=Facility.KERNEL,
                   entry="communication failure on socket read: connection closed by peer"),
        make_event(time=9000, severity=Severity.FATAL, facility=Facility.KERNEL,
                   entry="uncorrectable torus error: retransmission limit exceeded"),
    )


def test_one_transaction_per_fatal(chain_store):
    db = build_event_sets(chain_store, rule_window=600)
    assert len(db) == 2


def test_body_contains_preceding_nonfatals(chain_store):
    db = build_event_sets(chain_store, rule_window=600)
    names = {db.item_names[i] for i in db.bodies[0]}
    assert names == {"ddrErrorCorrectionInfo", "maskInfo"}
    head_names = {db.item_names[i] for i in db.heads[0]}
    assert head_names == {"socketReadFailure"}


def test_window_excludes_old_events(chain_store):
    db = build_event_sets(chain_store, rule_window=250)
    # Only maskInfo (t=200) is within 250 s of the fatal at t=400.
    names = {db.item_names[i] for i in db.bodies[0]}
    assert names == {"maskInfo"}


def test_isolated_fatal_has_empty_body(chain_store):
    db = build_event_sets(chain_store, rule_window=600)
    assert db.bodies[1] == frozenset()
    assert db.no_precursor_fraction() == pytest.approx(0.5)


def test_window_is_strictly_before_fatal(chain_store):
    # An event at the same second as the fatal is NOT a precursor.
    extra = _labeled(
        make_event(time=400, severity=Severity.INFO,
                   entry="timer interrupt rollover serviced"),
        make_event(time=400, severity=Severity.FATAL, facility=Facility.KERNEL,
                   entry="kernel panic: unrecoverable condition detected"),
    )
    db = build_event_sets(extra, rule_window=600)
    assert db.bodies[0] == frozenset()


def test_fatal_events_never_in_bodies(anl_events):
    db = build_event_sets(anl_events, rule_window=900)
    for body in db.bodies:
        assert not (body & db.fatal_items)


def test_transactions_union(chain_store):
    db = build_event_sets(chain_store, rule_window=600)
    t = db.transactions()
    assert t[0] == db.bodies[0] | db.heads[0]


def test_requires_classified_store(tiny_store):
    with pytest.raises(ValueError, match="classified"):
        build_event_sets(tiny_store, rule_window=600)


def test_requires_positive_window(chain_store):
    with pytest.raises(ValueError):
        build_event_sets(chain_store, rule_window=0)


def test_tiled_windows_cover_failure_free_stretches():
    store = _labeled(
        make_event(time=100, severity=Severity.INFO,
                   entry="timer interrupt rollover serviced"),
        make_event(time=5000, severity=Severity.INFO,
                   entry="dma transfer error: descriptor retried"),
        make_event(time=9000, severity=Severity.FATAL, facility=Facility.KERNEL,
                   entry="kernel panic: unrecoverable condition detected"),
    )
    db = build_tiled_windows(store, window=600)
    # The window holding t=5000 has a body but no head.
    assert any(b and not h for b, h in zip(db.bodies, db.heads))
    # Windows with no events at all are skipped.
    assert len(db) == 3


def test_tiled_windows_empty_store():
    db = build_tiled_windows(
        TaxonomyClassifier().classify_store(EventStore.empty()), window=600
    )
    assert len(db) == 0


def test_no_precursor_fraction_empty_db():
    db = EventSetDB([], [], [], frozenset())
    assert db.no_precursor_fraction() == 0.0


def test_db_alignment_validated():
    with pytest.raises(ValueError):
        EventSetDB([frozenset()], [], [], frozenset())


def test_paper_no_precursor_range(anl_events):
    """The ANL profile plants a substantial no-precursor fraction."""
    db = build_event_sets(anl_events, rule_window=15 * 60)
    assert 0.1 < db.no_precursor_fraction() < 0.7


def _tiled_reference(events, window):
    """The pre-vectorization per-window loop, kept as the oracle."""
    import numpy as np

    t0 = int(events.times[0])
    t1 = int(events.times[-1]) + 1
    edges = np.arange(t0, t1 + window, window)
    starts = np.searchsorted(events.times, edges[:-1], "left")
    ends = np.searchsorted(events.times, edges[1:], "left")
    fatal_mask = events.fatal_mask()
    bodies, heads = [], []
    for s, e in zip(starts, ends):
        if s == e:
            continue
        sl = slice(int(s), int(e))
        cats = events.subcat_ids[sl]
        fm = fatal_mask[sl]
        bodies.append(frozenset(int(x) for x in np.unique(cats[~fm])))
        heads.append(frozenset(int(x) for x in np.unique(cats[fm])))
    return bodies, heads


@pytest.mark.parametrize("window", [60.0, 300.0, 337.5, 3600.0])
def test_tiled_windows_match_per_window_reference(anl_events, window):
    """The np.unique segment construction is bit-identical to the loop,
    including non-integer window widths (float edge arithmetic)."""
    db = build_tiled_windows(anl_events, window)
    ref_bodies, ref_heads = _tiled_reference(anl_events, window)
    assert db.bodies == ref_bodies
    assert db.heads == ref_heads
    assert all(isinstance(next(iter(b), 0), int) for b in db.bodies)


def _random_classified_store(seed, n=150, horizon=400, labels=9):
    """Dense timestamps (many ties) and a fatal share of about a quarter."""
    rng = as_generator(seed)
    severities = rng.choice(
        [int(s) for s in Severity], size=n, p=[0.3, 0.2, 0.15, 0.1, 0.15, 0.1]
    )
    return EventStore.from_columns(
        times=rng.integers(0, horizon, n),
        severities=severities,
        facilities=np.zeros(n, dtype=np.int8),
        jobs=np.full(n, -1),
        location_ids=np.zeros(n, dtype=np.int32),
        entry_ids=np.zeros(n, dtype=np.int32),
        subcat_ids=rng.integers(0, labels, n),
        locations=["R00-M0"],
        entries=["e"],
        subcats=[f"label{i}" for i in range(labels)],
    )


def _per_fatal_reference(events, window):
    """Each fatal's body from its own np.unique over a time mask (the oracle)."""
    times, subcats = events.times, events.subcat_ids
    fatal = events.fatal_mask()
    bodies, heads = [], []
    for pos in np.flatnonzero(fatal):
        t = times[pos]
        in_window = ~fatal & (times >= t - window) & (times < t)
        bodies.append(frozenset(int(x) for x in np.unique(subcats[in_window])))
        heads.append(frozenset({int(subcats[pos])}))
    return bodies, heads


@pytest.mark.parametrize("window", [1.0, 7.5, 60.0, 1000.0])
@pytest.mark.parametrize("seed", range(6))
def test_event_sets_match_per_fatal_reference(seed, window):
    """Includes empty bodies, equal timestamps and windows that reach back
    past the first event (the largest window covers the whole store)."""
    events = _random_classified_store(seed)
    db = build_event_sets(events, window, fatal_items=frozenset({0, 1}))
    ref_bodies, ref_heads = _per_fatal_reference(events, window)
    assert db.bodies == ref_bodies
    assert db.heads == ref_heads
    assert len(db) == int(events.fatal_mask().sum()) > 0
    assert all(type(i) is int for b in db.bodies + db.heads for i in b)
    if window == 1.0:
        assert frozenset() in db.bodies


def test_event_sets_when_the_store_opens_with_a_fatal(anl_events):
    events = anl_events.select(slice(int(np.argmax(anl_events.fatal_mask())), None))
    assert events.fatal_mask()[0]
    db = build_event_sets(events, rule_window=15 * 60)
    ref_bodies, ref_heads = _per_fatal_reference(events, 15 * 60)
    assert db.bodies[0] == frozenset()
    assert (db.bodies, db.heads) == (ref_bodies, ref_heads)


@pytest.mark.parametrize("window", [600.0, 7200.0])
def test_previous_window_bodies_are_reused_exactly(anl_events, window):
    """Sliding windows built from the previous window's database equal
    fresh builds, and the bodies of the shared rows are the same objects."""
    n = len(anl_events)
    size, step = n // 2, max(1, n // 40)
    old = anl_events.select(slice(0, size))
    old_db = build_event_sets(old, window)
    for lo in (step, 2 * step, 3 * step + 1):
        new = anl_events.select(slice(lo, lo + size))
        fresh = build_event_sets(new, window)
        reused = build_event_sets(new, window, previous=(old, old_db))
        assert reused.bodies == fresh.bodies and reused.heads == fresh.heads
        shared = {id(b) for b in old_db.bodies}
        assert any(id(b) in shared for b in reused.bodies)
        old, old_db = new, reused
    # A store that shares no rows (another stream) is built from scratch.
    other = anl_events.select(slice(n - size // 2, n))
    assert build_event_sets(other, window, previous=(old, old_db)).bodies == (
        build_event_sets(other, window).bodies
    )

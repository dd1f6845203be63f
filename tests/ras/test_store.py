"""Tests for repro.ras.store.EventStore."""

import numpy as np
import pytest

from repro.cache.fingerprint import store_fingerprint
from repro.ras.backend import COLUMN_NAMES, TABLE_NAMES, InternTable
from repro.ras.columnar import open_store, write_store
from repro.ras.events import RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.store import UNCLASSIFIED, EventBatch, EventStore
from repro.util.rng import as_generator
from tests.conftest import make_event


def test_empty_store():
    s = EventStore.empty()
    assert len(s) == 0
    assert s.is_time_sorted()
    assert s.severity_counts()[Severity.INFO] == 0
    assert s.span_seconds() == 0


def test_from_events_sorts_by_time():
    events = [make_event(time=t) for t in (50, 10, 30)]
    s = EventStore.from_events(events)
    assert list(s.times) == [10, 30, 50]
    assert s.is_time_sorted()


def test_roundtrip_event_objects(tiny_store):
    events = tiny_store.to_events()
    again = EventStore.from_events(events)
    assert again.to_events() == events


def test_getitem_int_returns_event(tiny_store):
    ev = tiny_store[3]
    assert isinstance(ev, RasEvent)
    assert ev.severity is Severity.FATAL


def test_getitem_slice_returns_store(tiny_store):
    sub = tiny_store[1:3]
    assert isinstance(sub, EventStore)
    assert len(sub) == 2


def test_select_boolean_mask(tiny_store):
    mask = tiny_store.fatal_mask()
    fatal = tiny_store.select(mask)
    assert len(fatal) == 1
    assert fatal[0].severity is Severity.FATAL


def test_select_bad_mask_shape(tiny_store):
    with pytest.raises(ValueError, match="mask"):
        tiny_store.select(np.array([True, False]))


def test_select_index_array(tiny_store):
    sub = tiny_store.select(np.array([0, 4]))
    assert list(sub.times) == [100, 420]


def test_fatal_and_nonfatal_partition(tiny_store):
    fatal = tiny_store.fatal_events()
    rest = tiny_store.select(~tiny_store.fatal_mask())
    assert len(fatal) + len(rest) == len(tiny_store)
    assert fatal.fatal_mask().all() and not rest.fatal_mask().any()


def test_time_window_half_open(tiny_store):
    w = tiny_store.time_window(100, 300)
    assert list(w.times) == [100, 150, 200]


def test_severity_counts(tiny_store):
    counts = tiny_store.severity_counts()
    assert counts[Severity.INFO] == 3
    assert counts[Severity.FATAL] == 1
    assert counts[Severity.WARNING] == 1


def test_intern_tables_shared_by_selection(tiny_store):
    sub = tiny_store.select(tiny_store.fatal_mask())
    assert sub.location_table is tiny_store.location_table


@pytest.fixture(params=["memory", "columnar"])
def backed_store(request, tiny_store, tmp_path):
    """``tiny_store`` on each backend."""
    if request.param == "memory":
        return tiny_store.materialized()
    return open_store(write_store(tiny_store, tmp_path / "store"))


def test_slice_fingerprint_matches_index_selection(backed_store):
    for lo, hi in [(0, 5), (1, 3), (2, 2), (4, 5)]:
        view = backed_store.select(slice(lo, hi))
        copy = backed_store.select(np.arange(lo, hi))
        assert store_fingerprint(view) == store_fingerprint(copy)


def test_slice_columns_stay_read_only(backed_store):
    view = backed_store.select(slice(1, 4))
    for name in COLUMN_NAMES:
        column = view.column(name)
        assert not column.flags.writeable
        assert column is view.column(name)  # same object on every call
        with pytest.raises(ValueError):
            column[0] = 0


def test_slice_shares_intern_tables(backed_store):
    view = backed_store.select(slice(1, 4))
    for name in TABLE_NAMES:
        assert view.table(name) is backed_store.table(name)
    for chunk in backed_store.iter_chunks(2):
        for name in TABLE_NAMES:
            assert chunk.table(name) is backed_store.table(name)


def test_entry_interning(tiny_store):
    # Three "alpha msg" rows share one entry id.
    ids = tiny_store.entry_ids[:3]
    assert len(set(ids.tolist())) == 1


def test_concat_remaps_intern_ids():
    a = EventStore.from_events([make_event(time=1, entry="one", location="R00")])
    b = EventStore.from_events([make_event(time=2, entry="two", location="R01")])
    merged = a.concat(b)
    assert len(merged) == 2
    assert merged.entry_of(0) == "one"
    assert merged.entry_of(1) == "two"
    assert merged.is_time_sorted()


def test_concat_with_empty():
    a = EventStore.from_events([make_event(time=1)])
    merged = a.concat(EventStore.empty())
    assert len(merged) == 1


def test_concat_preserves_subcategories():
    a = EventStore.from_events(
        [make_event(time=1).with_subcategory("timerInterruptInfo")]
    )
    b = EventStore.from_events(
        [make_event(time=2).with_subcategory("dmaError")]
    )
    merged = a.concat(b)
    assert merged.subcat_of(0) == "timerInterruptInfo"
    assert merged.subcat_of(1) == "dmaError"


def _reinterned_concat(a: EventStore, b: EventStore) -> EventStore:
    """The merge that re-interns every string of ``b``'s tables (the oracle)."""
    tables, ids = [], []
    for table, column in (("locations", "location_ids"), ("entries", "entry_ids"),
                          ("subcats", "subcat_ids")):
        merged = InternTable(a.table(table).strings)
        remap = np.array([merged.intern(s) for s in b.table(table).strings] or [0],
                         dtype=np.int32)
        b_ids = b.column(column)
        b_ids = np.array([i if i == UNCLASSIFIED else remap[i] for i in b_ids.tolist()],
                         dtype=np.int32)
        tables.append(merged)
        ids.append(np.concatenate([a.column(column), b_ids]))
    return EventStore(
        *(np.concatenate([a.column(c), b.column(c)])
          for c in ("times", "severities", "facilities", "jobs")),
        *ids,
        *tables,
    ).sorted_by_time()


def _assert_same_concat(a: EventStore, b: EventStore) -> EventStore:
    merged = a.concat(b)
    assert store_fingerprint(merged) == store_fingerprint(_reinterned_concat(a, b))
    return merged


def test_concat_equals_reinterning_merge(anl_events):
    """A sliding window of select() chunks, fresh stores and a grown table."""
    # A private copy: the test grows its tables.
    served = EventStore.from_batch(EventBatch.from_events(anl_events.to_events()))
    rng = as_generator(5)
    cuts = np.sort(rng.choice(np.arange(1, len(served)), size=12, replace=False))
    window = served.select(slice(0, int(cuts[0])))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        chunk = served.select(slice(lo, hi))  # shares the served store's tables
        window = _assert_same_concat(window, chunk)
        fresh = EventStore.from_batch(EventBatch.from_events(chunk.to_events()))
        _assert_same_concat(window, fresh)
        _assert_same_concat(fresh, window)
    # The served tables grow after the window copied them: the window's
    # table is now a strict prefix of a chunk's.
    for table in ("locations", "entries", "subcats"):
        served.table(table).intern(f"grown-{table}")
    grown = served.select(slice(int(cuts[-1]), len(served)))
    merged = _assert_same_concat(window, grown)
    assert merged.subcat_table[-1] == "grown-subcats"
    _assert_same_concat(window, EventStore.empty())
    _assert_same_concat(EventStore.empty(), grown)


def test_concat_of_several_equals_pairwise_concats(anl_events):
    """``a.concat(b, c, ...)`` is ``a.concat(b).concat(c)...``: shared,
    grown and foreign tables, equal and out-of-order times, empty stores."""
    served = EventStore.from_batch(EventBatch.from_events(anl_events.to_events()))
    n = len(served)
    parts = [
        served.select(slice(0, n // 3)),
        served.select(slice(n // 3, n // 2)),
        EventStore.empty(),
        served.select(slice(n // 4, n // 3)),  # earlier times again
        EventStore.from_batch(
            EventBatch.from_events(served.select(slice(n // 2, n)).to_events()[::-1])
        ),  # own tables, reversed
    ]
    for table in ("locations", "entries", "subcats"):
        served.table(table).intern(f"grown-{table}")
    parts.append(served.select(slice(n - 5, n)))  # a strict prefix grown
    for k in range(1, len(parts) + 1):
        stores = parts[-k:] + parts[:-k]
        pairwise = stores[0]
        for other in stores[1:]:
            pairwise = pairwise.concat(other)
        merged = stores[0].concat(*stores[1:])
        assert store_fingerprint(merged) == store_fingerprint(pairwise)


def _setdefault_intern(table: list[str], strings) -> list[int]:
    """Reference interning: one dict lookup per string, new ones appended."""
    index = {s: i for i, s in enumerate(table)}
    ids = []
    for s in strings:
        ids.append(index.setdefault(s, len(index)))
        if len(index) > len(table):
            table.append(s)
    return ids


@pytest.mark.parametrize("prefilled", [[], ["b", "z"]])
@pytest.mark.parametrize(
    "strings", [[], ["a"], ["a", "b", "a", "c", "b", "a"], ["z", "z", "y", "b", "y"]]
)
@pytest.mark.parametrize("source", [list, tuple, lambda xs: (x for x in xs)])
def test_intern_all_matches_a_setdefault_loop(prefilled, strings, source):
    table = InternTable(prefilled)
    want = list(prefilled)
    assert table.intern_all(source(strings)) == _setdefault_intern(want, strings)
    assert table.strings == want
    # Ids stay consistent with single interning, and re-interning adds nothing.
    assert [table.intern(s) for s in want] == list(range(len(want)))
    assert table.intern_all(source(strings)) == _setdefault_intern(list(want), strings)
    assert table.strings == want


def test_event_batch_concat_of_one_and_of_many():
    events = [make_event(time=t, entry=f"msg {t % 3}", job_id=t - 1) for t in range(10)]
    events[4] = events[4].with_subcategory("dmaError")
    batch = EventBatch.from_events(events)
    assert EventBatch.concat([batch]) == batch
    assert EventBatch.concat([]) == EventBatch()
    cuts = [0, 0, 3, 4, 9, 10]
    merged = EventBatch.concat([batch[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
    assert merged == batch
    assert merged.events() == events
    assert all(type(column) is list for column in merged._lists())


def test_with_subcat_ids_validates_shape(tiny_store):
    with pytest.raises(ValueError):
        tiny_store.with_subcat_ids(np.zeros(2, dtype=np.int32), ["a"])


def test_with_subcat_ids_replaces_table(tiny_store):
    ids = np.zeros(len(tiny_store), dtype=np.int32)
    labeled = tiny_store.with_subcat_ids(ids, ["onlyLabel"])
    assert labeled.subcat_of(0) == "onlyLabel"
    assert labeled.subcat_counts() == {"onlyLabel": len(tiny_store)}


def test_unclassified_rows_skipped_in_counts(tiny_store):
    assert tiny_store.subcat_counts() == {}
    assert int(tiny_store.subcat_ids[0]) == UNCLASSIFIED


def test_span_seconds(tiny_store):
    assert tiny_store.span_seconds() == 320


def test_iteration_yields_events(tiny_store):
    assert sum(1 for _ in tiny_store) == len(tiny_store)


def test_event_at_fields(tiny_store):
    ev = tiny_store.event_at(4)
    assert ev.location == "R00-M0-S"
    assert ev.facility is Facility.MONITOR
    assert ev.job_id == -1


def test_event_objects_roundtrip_with_subcategories(monkeypatch):
    import repro.ras.store as store_module

    # Small iteration batches so the store crosses several batch edges.
    monkeypatch.setattr(store_module, "_ITER_ROWS", 3)
    events = [
        make_event(time=t, entry=f"msg {t % 4}", job_id=t % 3 - 1)
        for t in range(10)
    ]
    events = [
        ev.with_subcategory(f"label{ev.time % 3}") if ev.time % 4 else ev
        for ev in events
    ]
    store = EventStore.from_events(events)
    subcats = [ev.subcategory for ev in events]
    for got in (store.to_events(), list(store), [store[i] for i in range(len(store))]):
        assert got == events
        assert [ev.subcategory for ev in got] == subcats
    assert store[-1] == events[-1]
    with pytest.raises(IndexError):
        store.event_at(len(store))

"""Cross-backend equivalence: memory vs columnar EventStore behavior.

The storage API's core contract is that *every* public ``EventStore``
operation — and the content fingerprint the artifact cache keys on — is
bit-identical whether the columns live in RAM or in memory-mapped segment
files.  ``columnar_raw`` (conftest) is the small ANL log reopened from disk;
``small_anl_log.raw`` is the same log memory-backed.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro.cache import store_fingerprint
from repro.ras.store import EventStore
from tests.conftest import make_event


@pytest.fixture(scope="module")
def memory_raw(small_anl_log) -> EventStore:
    # materialized() pins the memory backend even when the ambient
    # REPRO_STORE_BACKEND default is columnar.
    return small_anl_log.raw.materialized()


def _assert_same_store(a: EventStore, b: EventStore) -> None:
    assert len(a) == len(b)
    for name in (
        "times", "severities", "facilities", "jobs",
        "location_ids", "entry_ids", "subcat_ids",
    ):
        np.testing.assert_array_equal(a.column(name), b.column(name))
    for table in ("locations", "entries", "subcats"):
        assert a.table(table).strings == b.table(table).strings


def test_fingerprint_identical_across_backends(memory_raw, columnar_raw):
    assert memory_raw.backend_kind == "memory"
    assert columnar_raw.backend_kind == "columnar"
    assert store_fingerprint(memory_raw) == store_fingerprint(columnar_raw)


def test_columns_and_tables_identical(memory_raw, columnar_raw):
    _assert_same_store(memory_raw, columnar_raw)


def test_time_window_identical(memory_raw, columnar_raw):
    t0 = int(memory_raw.times[len(memory_raw) // 4])
    t1 = int(memory_raw.times[3 * len(memory_raw) // 4])
    _assert_same_store(
        memory_raw.time_window(t0, t1), columnar_raw.time_window(t0, t1)
    )


def test_select_mask_and_index_identical(memory_raw, columnar_raw):
    mask = memory_raw.severities >= 4
    _assert_same_store(memory_raw.select(mask), columnar_raw.select(mask))
    idx = np.arange(0, len(memory_raw), 97)
    _assert_same_store(memory_raw.select(idx), columnar_raw.select(idx))


def test_select_empty_index_array(memory_raw, columnar_raw):
    empty = np.array([], dtype=np.int64)
    for store in (memory_raw, columnar_raw):
        derived = store.select(empty)
        assert len(derived) == 0
        assert derived.times.dtype == np.int64
        assert derived.table("entries").strings == store.table("entries").strings


def test_select_unsorted_index_array(memory_raw, columnar_raw):
    """select() takes indices as given — callers control the order."""
    idx = np.array([40, 3, 3, 17], dtype=np.int64)
    a = memory_raw.select(idx)
    b = columnar_raw.select(idx)
    np.testing.assert_array_equal(a.times, memory_raw.times[idx])
    _assert_same_store(a, b)


def test_getitem_slice_and_scalar_identical(memory_raw, columnar_raw):
    _assert_same_store(memory_raw[10:200], columnar_raw[10:200])
    assert memory_raw[42] == columnar_raw[42]
    _assert_same_store(memory_raw[::5], columnar_raw[::5])


def test_iter_chunks_cover_store_in_order(memory_raw, columnar_raw):
    for store in (memory_raw, columnar_raw):
        chunks = list(store.iter_chunks(10_000))
        assert sum(len(c) for c in chunks) == len(store)
        np.testing.assert_array_equal(
            np.concatenate([np.asarray(c.times) for c in chunks]),
            np.asarray(store.times),
        )


def test_fatal_and_derived_queries_identical(memory_raw, columnar_raw):
    np.testing.assert_array_equal(
        memory_raw.fatal_mask(), columnar_raw.fatal_mask()
    )
    _assert_same_store(
        memory_raw.fatal_events(), columnar_raw.fatal_events()
    )
    _assert_same_store(
        memory_raw.time_shifted(3600), columnar_raw.time_shifted(3600)
    )


def test_to_events_identical(memory_raw, columnar_raw):
    head_a = [memory_raw[i] for i in range(25)]
    head_b = [columnar_raw[i] for i in range(25)]
    assert head_a == head_b


def test_concat_remaps_intern_tables(columnar_raw):
    """concat() across stores with different tables keeps strings aligned."""
    other = EventStore.from_events(
        [
            make_event(
                time=int(columnar_raw.times[-1]) + 10 + i,
                location=f"R77-M1-N0{i}-C00",
                entry=f"novel entry {i}",
            )
            for i in range(3)
        ]
    )
    merged = columnar_raw.concat(other)
    assert len(merged) == len(columnar_raw) + 3
    # Every merged row decodes to the same strings its source row had.
    assert merged[len(merged) - 1].entry_data == "novel entry 2"
    assert merged[0] == columnar_raw[0]
    # Novel strings were appended, shared ones not duplicated.
    entries = merged.table("entries").strings
    assert entries[: len(columnar_raw.table("entries").strings)] == (
        columnar_raw.table("entries").strings
    )
    assert "novel entry 0" in entries


def test_columns_are_read_only_on_both_backends(memory_raw, columnar_raw):
    for store in (memory_raw, columnar_raw):
        with pytest.raises(ValueError):
            store.times[0] = 0  # type: ignore[index]
        assert not store.severities.flags.writeable


def test_column_rebind_raises_on_both_backends(memory_raw, columnar_raw):
    for store in (memory_raw, columnar_raw):
        kind = store.backend_kind
        before = store_fingerprint(store)
        with pytest.raises(AttributeError):
            store.times = np.asarray(store.times) + 1
        assert store.backend_kind == kind
        assert store_fingerprint(store) == before


def test_columnar_store_pickles_by_path(columnar_raw):
    """Whole-store pickling ships the directory path, not the bytes."""
    blob = pickle.dumps(columnar_raw)
    assert len(blob) < 4096
    clone = pickle.loads(blob)
    assert clone.backend_kind == "columnar"
    assert store_fingerprint(clone) == store_fingerprint(columnar_raw)


def test_columnar_slice_pickles_with_data(columnar_raw):
    """Derived (sliced) stores are memory-backed and pickle their arrays."""
    window = columnar_raw[100:300]
    clone = pickle.loads(pickle.dumps(window))
    _assert_same_store(window, clone)


def test_materialized_detaches_from_disk(columnar_raw):
    mat = columnar_raw.materialized()
    assert mat.backend_kind == "memory"
    assert mat.storage_path is None
    assert store_fingerprint(mat) == store_fingerprint(columnar_raw)


def test_no_spurious_deprecation_warnings_on_reads(columnar_raw):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        _ = columnar_raw.times[:10]
        _ = columnar_raw.fatal_mask()
        _ = len(columnar_raw.time_window(0, 10**11))

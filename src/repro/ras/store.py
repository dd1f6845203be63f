"""Columnar, NumPy-backed storage for RAS event streams.

The full-scale ANL log holds ~4.2 million records; a list of Python objects
at that scale makes every pass over the log a Python-level loop.
:class:`EventStore` instead keeps one NumPy array per RAS attribute (with
string attributes interned through lookup tables), so that the hot operations
of the pipeline — time-range queries, severity masks, group-bys for
compression — are vectorized.  This is the stand-in for the paper's
centralized DB2 repository.

Where the column bytes *live* is a separate concern: the store delegates to a
:class:`~repro.ras.backend.StoreBackend` — plain RAM arrays
(:class:`~repro.ras.backend.MemoryBackend`) or memory-mapped segment files on
disk (:class:`~repro.ras.columnar.ColumnarBackend`) for logs that do not fit
in memory.  Every public method behaves identically on either backend, and
``store_fingerprint`` digests are bit-identical, so artifact-cache keys are
stable across backends.

Invariants
----------
- All columns have equal length.
- ``times`` is kept sorted (ascending); constructors sort on ingest, and
  every derived store preserves order.  Sortedness is what allows
  ``searchsorted``-based O(log n) window queries.
- Column arrays are **read-only views** (``writeable=False``) and the
  column attributes cannot be rebound (``store.times = ...`` raises
  ``AttributeError``); derive a new store instead (RL014 flags column
  writes outside ``repro.ras``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.ras.backend import (
    COLUMN_NAMES,
    TABLE_NAMES,
    InternTable,
    MemoryBackend,
    StoreBackend,
    default_backend_kind,
    spill_dir,
)
from repro.ras.events import RasEvent
from repro.ras.fields import Facility, Severity

#: Sentinel subcategory id for unclassified events.
UNCLASSIFIED: int = -1

#: Rows converted per batch when iterating a store as event objects: large
#: enough to amortize the per-column ``tolist``, small enough that a
#: consumer stopping early (or a huge mapped store) converts little.
_ITER_ROWS = 1024

_FACILITIES: dict[int, Facility] = {int(f): f for f in Facility}
_SEVERITIES: dict[int, Severity] = {int(s): s for s in Severity}

@dataclass(slots=True)
class EventBatch:
    """Raw RAS rows in arrival order, one Python list per attribute.

    The staging form between a row producer (the daemon's wire decoder)
    and the columnar world: batches are sliced and concatenated as lists,
    then become an :class:`EventStore` (:meth:`EventStore.from_batch`) or a
    columnar archive append in one step, with no per-row
    :class:`RasEvent`.  ``facilities``/``severities`` hold enum members;
    ``subcats`` holds a client-supplied label or ``None``.
    """

    times: list[int] = field(default_factory=list)
    locations: list[str] = field(default_factory=list)
    facilities: list[Facility] = field(default_factory=list)
    severities: list[Severity] = field(default_factory=list)
    entries: list[str] = field(default_factory=list)
    jobs: list[int] = field(default_factory=list)
    event_types: list[str] = field(default_factory=list)
    subcats: list[Optional[str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)

    def _lists(self) -> tuple[list, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __getitem__(self, key: slice) -> "EventBatch":
        """Rows ``key`` (a slice) as a new batch."""
        return EventBatch(*(column[key] for column in self._lists()))

    @classmethod
    def concat(cls, batches: Sequence["EventBatch"]) -> "EventBatch":
        """The rows of ``batches``, one after the other."""
        if len(batches) == 1:
            return batches[0]
        return cls(*(
            [value for column in columns for value in column]
            for columns in zip(*(b._lists() for b in batches))
        ))

    @classmethod
    def from_events(cls, events: Iterable[RasEvent]) -> "EventBatch":
        events = list(events)
        # RasEvent's slots are its fields, in the order of this batch's lists.
        return cls(*([getattr(ev, a) for ev in events] for a in RasEvent.__slots__))

    def events(self) -> list[RasEvent]:
        """The rows as event objects (API edges and tests, not hot paths)."""
        return [RasEvent(*row) for row in zip(*self._lists())]

    def columns(
        self,
        tables: Mapping[str, InternTable],
        subcats: Optional[Sequence[Optional[str]]] = None,
    ) -> dict[str, np.ndarray]:
        """Schema columns of the rows, interning strings into ``tables``;
        ``subcats`` (row order) overrides the batch's own labels."""
        n = len(self)
        intern = tables["subcats"].intern
        names = self.subcats if subcats is None else subcats
        return {
            "times": np.array(self.times, dtype=np.int64),
            "severities": np.fromiter(self.severities, np.int8, n),
            "facilities": np.fromiter(self.facilities, np.int8, n),
            "jobs": np.array(self.jobs, dtype=np.int64),
            "location_ids": np.array(tables["locations"].intern_all(self.locations), np.int32),
            "entry_ids": np.array(tables["entries"].intern_all(self.entries), np.int32),
            "subcat_ids": np.array(
                [UNCLASSIFIED if s is None else intern(s) for s in names], np.int32
            ),
        }


def _column_property(name: str) -> property:
    """A read-only column accessor; assigning it raises ``AttributeError``."""

    def getter(self: "EventStore") -> np.ndarray:
        return self._backend.column(name)

    getter.__name__ = name
    return property(getter, doc=f"Read-only ``{name}`` column view.")


class EventStore:
    """A time-sorted columnar collection of RAS events.

    Construct with :meth:`from_events` (from ``RasEvent`` objects),
    :meth:`from_columns` (from pre-built arrays, used by the synthetic
    generator for speed), or :meth:`from_backend` (wrap an existing
    backend, used by :func:`repro.ras.columnar.open_store`).  Stores are
    immutable: all mutating-ish operations return new stores sharing intern
    tables.

    With ``REPRO_STORE_BACKEND=columnar`` the public constructors spill
    their columns to a session-scoped temp directory and reopen them
    memory-mapped, so an unmodified test suite exercises the out-of-core
    path end to end.
    """

    __slots__ = ("_backend",)

    # Column accessors: ``store.times`` etc. read straight from the backend.
    times = _column_property("times")
    severities = _column_property("severities")
    facilities = _column_property("facilities")
    jobs = _column_property("jobs")
    location_ids = _column_property("location_ids")
    entry_ids = _column_property("entry_ids")
    subcat_ids = _column_property("subcat_ids")

    def __init__(
        self,
        times: np.ndarray,
        severities: np.ndarray,
        facilities: np.ndarray,
        jobs: np.ndarray,
        location_ids: np.ndarray,
        entry_ids: np.ndarray,
        subcat_ids: np.ndarray,
        locations: InternTable,
        entries: InternTable,
        subcats: InternTable,
    ) -> None:
        self._backend: StoreBackend = MemoryBackend(
            {
                "times": times,
                "severities": severities,
                "facilities": facilities,
                "jobs": jobs,
                "location_ids": location_ids,
                "entry_ids": entry_ids,
                "subcat_ids": subcat_ids,
            },
            {"locations": locations, "entries": entries, "subcats": subcats},
        )

    # ------------------------------------------------------------------ #
    # Backend surface
    # ------------------------------------------------------------------ #

    @classmethod
    def from_backend(cls, backend: StoreBackend) -> "EventStore":
        """Wrap an existing backend without copying anything."""
        store = cls.__new__(cls)
        store._backend = backend
        return store

    @property
    def backend(self) -> StoreBackend:
        """The storage backend holding this store's bytes."""
        return self._backend

    @property
    def backend_kind(self) -> str:
        """``"memory"`` or ``"columnar"``."""
        return self._backend.kind

    @property
    def storage_path(self) -> Optional[str]:
        """The on-disk store directory, or ``None`` for in-memory stores.

        The evaluation engine ships this path to worker processes instead
        of pickling the column bytes; workers reopen their own memory map.
        """
        return self._backend.storage_path

    def column(self, name: str) -> np.ndarray:
        """Read-only view of a schema column by name (see ``COLUMN_NAMES``)."""
        return self._backend.column(name)

    def table(self, name: str) -> InternTable:
        """An intern table by name (see ``TABLE_NAMES``)."""
        return self._backend.table(name)

    def materialized(self) -> "EventStore":
        """An in-memory copy: columns loaded into RAM, tables copied.

        No-op for stores already on the memory backend.  Use before heavy
        random access when the columnar page-in cost would dominate.
        """
        if isinstance(self._backend, MemoryBackend):
            return self
        columns = [
            np.array(self._backend.column(name)) for name in COLUMN_NAMES
        ]
        tables = [self._backend.table(name).copy() for name in TABLE_NAMES]
        return EventStore(*columns, *tables)

    # Intern tables, named for the internal call sites.
    @property
    def _locations(self) -> InternTable:
        return self._backend.table("locations")

    @property
    def _entries(self) -> InternTable:
        return self._backend.table("entries")

    @property
    def _subcats(self) -> InternTable:
        return self._backend.table("subcats")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls) -> "EventStore":
        """A store with zero events (always memory-backed; nothing to spill)."""
        z = np.empty(0, dtype=np.int64)
        return cls(
            z,
            np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.int8),
            z.copy(),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            InternTable(),
            InternTable(),
            InternTable(),
        )

    @classmethod
    def from_events(cls, events: Iterable[RasEvent]) -> "EventStore":
        """Build a store from event objects; sorts by time (stable).

        Honors ``REPRO_STORE_BACKEND=columnar`` by spilling the sorted
        store to a session temp directory (blocking file I/O).  Async code
        and other spill-averse callers use :meth:`from_events_in_memory`.
        """
        return _to_default_backend(cls.from_events_in_memory(events))

    @classmethod
    def from_events_in_memory(cls, events: Iterable[RasEvent]) -> "EventStore":
        """:meth:`from_events` minus the backend-default spill.

        The result is always :class:`MemoryBackend`-backed regardless of
        ``REPRO_STORE_BACKEND`` — the right constructor for small ephemeral
        stores (per-batch chunks in the serving loop) where a disk round
        trip would be pure overhead, and for asyncio coroutines where it
        would block the event loop (RL013).
        """
        return cls.from_batch(EventBatch.from_events(events))

    @classmethod
    def from_batch(
        cls, batch: EventBatch, label: Optional[Callable[[str], str]] = None
    ) -> "EventStore":
        """A memory-backed, time-sorted store of ``batch``'s rows.

        With ``label`` (an ENTRY_DATA -> subcategory function), rows without
        a subcategory are labeled, calling ``label`` once per distinct
        entry; a row's own subcategory wins.
        """
        subcats = None
        if label is not None:
            known = {e: label(e) for e in dict.fromkeys(batch.entries)}
            subcats = [known[e] if s is None else s for e, s in zip(batch.entries, batch.subcats)]
        tables = {name: InternTable() for name in TABLE_NAMES}
        columns = batch.columns(tables, subcats)
        store = cls(*(columns[n] for n in COLUMN_NAMES), *(tables[n] for n in TABLE_NAMES))
        return store.sorted_by_time()

    @classmethod
    def from_columns(
        cls,
        times: np.ndarray,
        severities: np.ndarray,
        facilities: np.ndarray,
        jobs: np.ndarray,
        location_ids: np.ndarray,
        entry_ids: np.ndarray,
        subcat_ids: np.ndarray,
        locations: Sequence[str],
        entries: Sequence[str],
        subcats: Sequence[str],
    ) -> "EventStore":
        """Build directly from columns (bulk path used by the generator)."""
        store = cls(
            np.asarray(times, dtype=np.int64),
            np.asarray(severities, dtype=np.int8),
            np.asarray(facilities, dtype=np.int8),
            np.asarray(jobs, dtype=np.int64),
            np.asarray(location_ids, dtype=np.int32),
            np.asarray(entry_ids, dtype=np.int32),
            np.asarray(subcat_ids, dtype=np.int32),
            InternTable(list(locations)),
            InternTable(list(entries)),
            InternTable(list(subcats)),
        )
        return _to_default_backend(store.sorted_by_time())

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._backend)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = ""
        if len(self):
            span = f", t=[{self.times[0]}..{self.times[-1]}]"
        return f"EventStore(n={len(self)}, backend={self.backend_kind}{span})"

    def __getitem__(
        self, key: Union[int, slice, np.ndarray]
    ) -> Union[RasEvent, "EventStore"]:
        """``store[i]`` -> :class:`RasEvent`; slice/array -> derived store."""
        if isinstance(key, (int, np.integer)):
            return self.event_at(int(key))
        return self.select(key)

    def __iter__(self) -> Iterator[RasEvent]:
        for lo in range(0, len(self), _ITER_ROWS):
            yield from self._events(lo, lo + _ITER_ROWS)

    def _events(self, lo: int, hi: int) -> list[RasEvent]:
        """Rows ``lo:hi`` as event objects, converted a column at a time."""
        locations = self._locations.strings
        entries = self._entries.strings
        # Unclassified rows carry id -1, which indexes the trailing None.
        subcats: list[Optional[str]] = [*self._subcats.strings, None]
        columns = [
            self._backend.column(name)[lo:hi].tolist()
            for name in ("times", "location_ids", "facilities", "severities",
                         "entry_ids", "jobs", "subcat_ids")
        ]
        return [
            RasEvent(t, locations[loc], _FACILITIES[fac], _SEVERITIES[sev],
                     entries[ent], job, "RAS", subcats[sc])
            for t, loc, fac, sev, ent, job, sc in zip(*columns)
        ]

    def event_at(self, i: int) -> RasEvent:
        """Materialize row ``i`` as a :class:`RasEvent`."""
        i = range(len(self))[i]
        return self._events(i, i + 1)[0]

    def to_events(self) -> list[RasEvent]:
        """Materialize the whole store as event objects (small stores only)."""
        return self._events(0, len(self))

    # ------------------------------------------------------------------ #
    # String table access
    # ------------------------------------------------------------------ #

    @property
    def location_table(self) -> list[str]:
        """The interned location strings (index = location id)."""
        return self._locations.strings

    @property
    def entry_table(self) -> list[str]:
        """The interned ENTRY_DATA strings (index = entry id)."""
        return self._entries.strings

    @property
    def subcat_table(self) -> list[str]:
        """The interned subcategory names (index = subcategory id)."""
        return self._subcats.strings

    def location_of(self, i: int) -> str:
        """Location string of row ``i``."""
        return self._locations[int(self.location_ids[i])]

    def entry_of(self, i: int) -> str:
        """ENTRY_DATA string of row ``i``."""
        return self._entries[int(self.entry_ids[i])]

    def subcat_of(self, i: int) -> Optional[str]:
        """Subcategory name of row ``i`` (``None`` if unclassified)."""
        sc = int(self.subcat_ids[i])
        return None if sc == UNCLASSIFIED else self._subcats[sc]

    def subcat_id_of(self, name: str) -> int:
        """Id of a subcategory name, interning it if new."""
        return self._subcats.intern(name)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #

    def _derive(self, idx: np.ndarray) -> "EventStore":
        """Fancy-indexed derivation: materializes the selected rows in RAM."""
        return EventStore(
            self.times[idx],
            self.severities[idx],
            self.facilities[idx],
            self.jobs[idx],
            self.location_ids[idx],
            self.entry_ids[idx],
            self.subcat_ids[idx],
            self._locations,
            self._entries,
            self._subcats,
        )

    def _derive_slice(self, lo: int, hi: int) -> "EventStore":
        """Contiguous-range derivation: zero-copy views into the backend.

        On the columnar backend the views are slices of the memory map, so
        a window over a 100M-event log costs no RSS until its pages are
        touched — this is the primitive ``time_window`` and ``iter_chunks``
        are built on.
        """
        return EventStore(
            self.times[lo:hi],
            self.severities[lo:hi],
            self.facilities[lo:hi],
            self.jobs[lo:hi],
            self.location_ids[lo:hi],
            self.entry_ids[lo:hi],
            self.subcat_ids[lo:hi],
            self._locations,
            self._entries,
            self._subcats,
        )

    def select(self, key: Union[slice, np.ndarray, Sequence[int]]) -> "EventStore":
        """Derived store from a slice, boolean mask or index array.

        The derived store shares intern tables with its parent (ids remain
        comparable across the two), and preserves time order because parents
        are sorted and the selection preserves relative order for masks and
        forward slices.  Forward unit-step slices are zero-copy views;
        masks and index arrays materialize the selection.
        """
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step == 1:
                return self._derive_slice(start, max(start, stop))
            idx = np.arange(len(self))[key]
        else:
            key = np.asarray(key)
            if key.dtype == bool:
                if key.shape != (len(self),):
                    raise ValueError(
                        f"boolean mask has shape {key.shape}, expected ({len(self)},)"
                    )
                idx = np.flatnonzero(key)
            else:
                idx = key.astype(np.int64)
        return self._derive(idx)

    def iter_chunks(self, chunk_events: int) -> Iterator["EventStore"]:
        """Yield contiguous sub-stores of at most ``chunk_events`` rows.

        Chunks are zero-copy slices sharing the parent's intern tables, so
        streaming consumers (phase1, ``process_store``, replay) touch one
        chunk's pages at a time while ids stay comparable across chunks.
        """
        if chunk_events <= 0:
            raise ValueError(
                f"chunk_events must be positive, got {chunk_events}"
            )
        for lo in range(0, len(self), chunk_events):
            yield self._derive_slice(lo, min(lo + chunk_events, len(self)))

    def sorted_by_time(self) -> "EventStore":
        """Return a time-sorted copy (stable); no-op copy if already sorted."""
        if self.is_time_sorted():
            return self
        return self._derive(np.argsort(self.times, kind="stable"))

    def is_time_sorted(self) -> bool:
        """True if the time column is non-decreasing."""
        # Comparing shifted views skips ``np.diff``'s temporary and its
        # fixed cost, which dominates on the serving loop's small chunks.
        t = self.times
        return len(t) < 2 or not bool((t[1:] < t[:-1]).any())

    def time_window(self, start: float, end: float) -> "EventStore":
        """Events with ``start <= time < end`` (O(log n) on sorted store).

        Zero-copy: the result's columns are views into this store's backend.
        """
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="left"))
        return self._derive_slice(lo, hi)

    def time_shifted(self, delta: int) -> "EventStore":
        """A copy with every timestamp shifted by ``delta`` seconds.

        Order is preserved (a constant shift cannot reorder), and intern
        tables are shared with the parent.  Used to splice regime segments
        into one continuous stream (e.g. the lifecycle drift benches append
        a second log after the first one ends).
        """
        return EventStore(
            self.times + np.int64(delta),
            self.severities,
            self.facilities,
            self.jobs,
            self.location_ids,
            self.entry_ids,
            self.subcat_ids,
            self._locations,
            self._entries,
            self._subcats,
        )

    def concat(self, other: "EventStore") -> "EventStore":
        """Merge two stores into a new time-sorted store.

        Intern ids of ``other`` are remapped onto this store's tables.
        """
        locations = self._locations.copy()
        entries = self._entries.copy()
        subcats = self._subcats.copy()
        loc_map = np.array(
            [locations.intern(s) for s in other._locations.strings] or [0],
            dtype=np.int32,
        )
        ent_map = np.array(
            [entries.intern(s) for s in other._entries.strings] or [0],
            dtype=np.int32,
        )
        sub_map = np.array(
            [subcats.intern(s) for s in other._subcats.strings] or [0],
            dtype=np.int32,
        )
        other_sub = other.subcat_ids.copy()
        mask = other_sub != UNCLASSIFIED
        remapped_sub = np.full(len(other), UNCLASSIFIED, dtype=np.int32)
        if mask.any():
            remapped_sub[mask] = sub_map[other_sub[mask]]
        merged = EventStore(
            np.concatenate([self.times, other.times]),
            np.concatenate([self.severities, other.severities]),
            np.concatenate([self.facilities, other.facilities]),
            np.concatenate([self.jobs, other.jobs]),
            np.concatenate(
                [self.location_ids, loc_map[other.location_ids] if len(other) else other.location_ids]
            ),
            np.concatenate(
                [self.entry_ids, ent_map[other.entry_ids] if len(other) else other.entry_ids]
            ),
            np.concatenate([self.subcat_ids, remapped_sub]),
            locations,
            entries,
            subcats,
        )
        return merged.sorted_by_time()

    # ------------------------------------------------------------------ #
    # Masks and summaries
    # ------------------------------------------------------------------ #

    def fatal_mask(self) -> np.ndarray:
        """Boolean mask of failure records (severity FATAL or FAILURE)."""
        return self.severities >= int(Severity.FATAL)

    def fatal_events(self) -> "EventStore":
        """The failure records only."""
        return self.select(self.fatal_mask())

    def nonfatal_events(self) -> "EventStore":
        """The non-failure records only."""
        return self.select(~self.fatal_mask())

    def severity_counts(self) -> dict[Severity, int]:
        """Record count per severity level."""
        counts = np.bincount(self.severities, minlength=len(Severity))
        return {sev: int(counts[int(sev)]) for sev in Severity}

    def subcat_counts(self) -> dict[str, int]:
        """Record count per subcategory (unclassified rows are skipped)."""
        mask = self.subcat_ids != UNCLASSIFIED
        if not mask.any():
            return {}
        counts = np.bincount(self.subcat_ids[mask], minlength=len(self._subcats))
        return {
            self._subcats[i]: int(c) for i, c in enumerate(counts) if c > 0
        }

    def span_seconds(self) -> int:
        """Duration covered by the store (0 for fewer than 2 events)."""
        if len(self) < 2:
            return 0
        return int(self.times[-1] - self.times[0])

    def with_subcat_ids(
        self, subcat_ids: np.ndarray, subcat_names: Sequence[str]
    ) -> "EventStore":
        """Return a copy with the subcategory column replaced.

        Used by the taxonomy classifier, which computes labels for all rows
        in one vectorized pass.
        """
        ids = np.asarray(subcat_ids, dtype=np.int32)
        if ids.shape != (len(self),):
            raise ValueError(
                f"subcat_ids has shape {ids.shape}, expected ({len(self)},)"
            )
        return EventStore(
            self.times,
            self.severities,
            self.facilities,
            self.jobs,
            self.location_ids,
            self.entry_ids,
            ids,
            self._locations,
            self._entries,
            InternTable(list(subcat_names)),
        )


def _to_default_backend(store: EventStore) -> EventStore:
    """Spill a freshly built store to disk when the session default says so.

    ``REPRO_STORE_BACKEND=columnar`` makes every publicly constructed store
    columnar-backed (written once to a session temp dir, reopened mmap'd),
    which is how the CI matrix proves backend equivalence without touching a
    single test.  Empty stores stay in memory — there is nothing to map.
    """
    if len(store) == 0 or default_backend_kind() != "columnar":
        return store
    from repro.ras import columnar

    path = spill_dir()
    columnar.write_store(store, path)
    return columnar.open_store(path)

"""Out-of-core columnar storage: append-only segment files + mmap reads.

The on-disk format is deliberately primitive — pure NumPy + ``mmap``, no
third-party dependency — following the chunked-carray idiom (append in
segments, flush explicitly, memory-map on read):

Layout under a store directory::

    manifest.json            # atomic commit point (os.replace)
    columns/times.bin        # raw little-endian int64, append-only
    columns/severities.bin   # ... one file per schema column
    tables/locations.json    # interned strings, index = id
    tables/entries.json
    tables/subcats.json

The **manifest** is the single source of truth: it records the committed row
count, per-column dtype, the append-segment history, and whether the time
column is globally sorted.  Writers append raw bytes to the column files
*first* and replace the manifest *last*, so a crash mid-append leaves
trailing uncommitted bytes that readers simply never map (``rows`` in the
manifest governs the mapped length).  A missing or corrupt manifest reads as
"no store here" — the same corruption-as-absence discipline as
:class:`~repro.lifecycle.registry.ModelRegistry`.

Reads are **zero-copy**: :func:`open_store` memory-maps each column file
read-only, so a 100M-event log costs address space, not RSS, and
``time_window``/``iter_chunks`` slices are views into the map.  The OS pages
event data in and out on demand — the fixed-memory-budget guarantee the
columnar benchmark asserts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Optional, Union

import numpy as np

from repro.ras.backend import (
    COLUMN_DTYPES,
    COLUMN_NAMES,
    TABLE_NAMES,
    InternTable,
)
from repro.ras.events import RasEvent
from repro.ras.store import UNCLASSIFIED, EventBatch, EventStore

#: Manifest schema version.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
COLUMNS_DIR = "columns"
TABLES_DIR = "tables"

#: Default rows per chunk for streaming readers/writers (~8 MiB of columns).
DEFAULT_CHUNK_EVENTS = 262_144


class StoreDirError(ValueError):
    """The directory is not a readable columnar store."""


def _manifest_path(root: Union[str, Path]) -> Path:
    return Path(root) / MANIFEST_NAME


def is_columnar_dir(path: Union[str, Path]) -> bool:
    """True if ``path`` looks like a columnar store (manifest present)."""
    return _manifest_path(path).is_file()


def _load_manifest(root: Path) -> Optional[dict[str, Any]]:
    """The committed manifest, or ``None`` when absent/corrupt."""
    try:
        with open(_manifest_path(root), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        return None
    if not isinstance(doc.get("rows"), int) or doc["rows"] < 0:
        return None
    columns = doc.get("columns")
    if not isinstance(columns, dict) or set(columns) != set(COLUMN_NAMES):
        return None
    return doc


def _write_manifest(root: Path, doc: dict[str, Any]) -> None:
    tmp = _manifest_path(root).with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, _manifest_path(root))


def _write_table(root: Path, name: str, strings: list[str]) -> None:
    path = root / TABLES_DIR / f"{name}.json"
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(strings, fh)
        fh.write("\n")
    os.replace(tmp, path)


class ColumnarWriter:
    """Append-only writer for a columnar store directory.

    Chunks are appended with :meth:`append` (an :class:`EventStore` slice;
    intern ids are remapped onto the writer's growing tables exactly as
    :meth:`EventStore.concat` would) or :meth:`append_batch` (raw rows in
    arrival order, the live-ingestion path).  Every append is durably committed:
    column bytes are flushed before the manifest is atomically replaced, so
    readers always observe a consistent prefix.

    ``resume=True`` reopens an existing store for further appends; a missing
    or corrupt manifest is treated as absence and the directory is
    (re)initialized empty.  The writer tracks whether appended times are
    globally non-decreasing; :func:`open_store` sorts unsorted stores on
    open (materializing them), so bulk writers should append in time order.
    """

    def __init__(
        self, path: Union[str, Path], *, resume: bool = False
    ) -> None:
        self.root = Path(path)
        (self.root / COLUMNS_DIR).mkdir(parents=True, exist_ok=True)
        (self.root / TABLES_DIR).mkdir(parents=True, exist_ok=True)
        self.rows = 0
        self.segments: list[int] = []
        self._sorted = True
        self._last_time: Optional[int] = None
        self._tables = {name: InternTable() for name in TABLE_NAMES}
        self._closed = False

        manifest = _load_manifest(self.root) if resume else None
        if manifest is not None:
            self.rows = int(manifest["rows"])
            self.segments = [int(s["rows"]) for s in manifest.get("segments", [])]
            self._sorted = bool(manifest.get("sorted", False))
            last = manifest.get("last_time")
            self._last_time = int(last) if last is not None else None
            for name in TABLE_NAMES:
                self._tables[name] = InternTable(_read_table(self.root, name))

        self._files = {}
        for name in COLUMN_NAMES:
            fpath = self.root / COLUMNS_DIR / f"{name}.bin"
            fh = open(fpath, "ab")
            # Drop uncommitted bytes past the manifest's row count (crash
            # leftovers) — or everything, when starting fresh.
            fh.truncate(self.rows * COLUMN_DTYPES[name].itemsize)
            self._files[name] = fh
        if manifest is None:
            self._commit()  # initialize an empty, openable store

    # ------------------------------------------------------------------ #

    def _remap(self, store: EventStore, table: str, ids: np.ndarray) -> np.ndarray:
        strings = store.table(table).strings
        mapping = np.array(
            [self._tables[table].intern(s) for s in strings] or [0],
            dtype=np.int32,
        )
        if table == "subcats":
            out = np.full(len(ids), UNCLASSIFIED, dtype=np.int32)
            mask = ids != UNCLASSIFIED
            if mask.any():
                out[mask] = mapping[ids[mask]]
            return out
        if len(ids) == 0:
            return np.asarray(ids, dtype=np.int32)
        return mapping[ids]

    def _note_times(self, times: np.ndarray) -> None:
        if len(times) == 0:
            return
        if self._sorted:
            if self._last_time is not None and int(times[0]) < self._last_time:
                self._sorted = False
            elif len(times) > 1 and bool(np.any(np.diff(times) < 0)):
                self._sorted = False
        self._last_time = int(times[-1])

    def _append_columns(self, columns: dict[str, np.ndarray]) -> int:
        n = len(columns["times"])
        self._note_times(columns["times"])
        for name in COLUMN_NAMES:
            arr = np.ascontiguousarray(columns[name], dtype=COLUMN_DTYPES[name])
            self._files[name].write(arr.tobytes())
        self.rows += n
        self.segments.append(n)
        self._commit()
        return n

    def append(self, store: EventStore) -> int:
        """Append a store chunk; returns the number of rows written."""
        if self._closed:
            raise StoreDirError("writer is closed")
        if len(store) == 0:
            return 0
        return self._append_columns(
            {
                "times": store.times,
                "severities": store.severities,
                "facilities": store.facilities,
                "jobs": store.jobs,
                "location_ids": self._remap(store, "locations", store.location_ids),
                "entry_ids": self._remap(store, "entries", store.entry_ids),
                "subcat_ids": self._remap(store, "subcats", store.subcat_ids),
            }
        )

    def append_batch(self, batch: EventBatch) -> int:
        """Append raw rows in arrival order (the live-ingestion path).

        No sorting happens here — the daemon's wire order is the record of
        arrival; the manifest's ``sorted`` flag reflects reality and
        :func:`open_store` re-sorts when needed.
        """
        if self._closed:
            raise StoreDirError("writer is closed")
        if len(batch) == 0:
            return 0
        return self._append_columns(batch.columns(self._tables))

    def append_events(self, events: Iterable[RasEvent]) -> int:
        """:meth:`append_batch` for event objects."""
        return self.append_batch(EventBatch.from_events(events))

    # ------------------------------------------------------------------ #

    def _commit(self) -> None:
        """Flush column bytes, persist tables, then atomically publish."""
        for fh in self._files.values():
            fh.flush()
            os.fsync(fh.fileno())
        for name in TABLE_NAMES:
            _write_table(self.root, name, self._tables[name].strings)
        _write_manifest(
            self.root,
            {
                "version": FORMAT_VERSION,
                "rows": self.rows,
                "sorted": self._sorted,
                "last_time": self._last_time,
                "columns": {
                    name: {"dtype": COLUMN_DTYPES[name].str}
                    for name in COLUMN_NAMES
                },
                "segments": [{"rows": int(n)} for n in self.segments],
                "tables": {
                    name: {"entries": len(self._tables[name])}
                    for name in TABLE_NAMES
                },
            },
        )

    def close(self) -> Path:
        """Commit and release file handles; returns the store directory."""
        if not self._closed:
            self._commit()
            for fh in self._files.values():
                fh.close()
            self._closed = True
        return self.root

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _read_table(root: Path, name: str) -> list[str]:
    path = root / TABLES_DIR / f"{name}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, OSError, ValueError):
        return []
    if not isinstance(doc, list):
        return []
    return [str(s) for s in doc]


class ColumnarBackend:
    """Read-only memory-mapped view of a committed columnar store."""

    __slots__ = ("root", "_rows", "_sorted", "_segments", "_columns", "_tables")

    def __init__(self, path: Union[str, Path]) -> None:
        self.root = Path(path)
        manifest = _load_manifest(self.root)
        if manifest is None:
            raise StoreDirError(
                f"{self.root} has no readable columnar manifest "
                f"({MANIFEST_NAME} missing or corrupt)"
            )
        self._rows = int(manifest["rows"])
        self._sorted = bool(manifest.get("sorted", False))
        self._segments = [int(s["rows"]) for s in manifest.get("segments", [])]
        self._columns: dict[str, np.ndarray] = {}
        for name in COLUMN_NAMES:
            declared = manifest["columns"].get(name, {}).get("dtype")
            dtype = np.dtype(declared) if declared else COLUMN_DTYPES[name]
            fpath = self.root / COLUMNS_DIR / f"{name}.bin"
            needed = self._rows * dtype.itemsize
            try:
                actual = os.path.getsize(fpath)
            except OSError as exc:
                raise StoreDirError(f"{fpath} unreadable: {exc}") from exc
            if actual < needed:
                raise StoreDirError(
                    f"{fpath} holds {actual} bytes but the manifest commits "
                    f"{self._rows} rows ({needed} bytes)"
                )
            if self._rows == 0:
                self._columns[name] = np.empty(0, dtype=dtype)
            else:
                self._columns[name] = np.memmap(
                    fpath, dtype=dtype, mode="r", shape=(self._rows,)
                )
        self._tables = {
            name: InternTable(_read_table(self.root, name))
            for name in TABLE_NAMES
        }

    def __len__(self) -> int:
        return self._rows

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def table(self, name: str) -> InternTable:
        return self._tables[name]

    @property
    def kind(self) -> str:
        return "columnar"

    @property
    def storage_path(self) -> Optional[str]:
        return str(self.root)

    @property
    def time_sorted(self) -> bool:
        return self._sorted

    @property
    def segments(self) -> list[int]:
        return list(self._segments)

    def disk_bytes(self) -> int:
        """Total committed bytes across column files (manifest rows only)."""
        return sum(
            self._rows * COLUMN_DTYPES[name].itemsize for name in COLUMN_NAMES
        )

    # Whole-store pickling ships the *path*, not the bytes: a worker process
    # re-opens its own memory map (see docs/parallel.md).
    def __reduce__(self) -> tuple[Any, tuple[str]]:
        return (ColumnarBackend, (str(self.root),))


def open_store(path: Union[str, Path]) -> EventStore:
    """Open a columnar store directory as an :class:`EventStore`.

    Sorted stores (the bulk-write path) come back memory-mapped and
    zero-copy.  Unsorted stores (live-ingestion order) are sorted on open,
    which materializes the columns in RAM — re-compact with
    :func:`write_store` to restore out-of-core reads.
    """
    backend = ColumnarBackend(path)
    store = EventStore.from_backend(backend)
    if not backend.time_sorted:
        store = store.sorted_by_time()
    return store


def write_store(
    store: EventStore,
    path: Union[str, Path],
    *,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Path:
    """Write any store to ``path`` as a columnar store, chunk by chunk."""
    with ColumnarWriter(path) as writer:
        for chunk in store.iter_chunks(chunk_events):
            writer.append(chunk)
    return Path(path)

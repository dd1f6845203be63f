"""Storage backends for :class:`~repro.ras.store.EventStore`.

The event store's *logical* surface (time-range queries, selection, interned
string columns) is independent of where the column bytes live.  This module
defines the boundary:

- :data:`COLUMNS` — the canonical column schema (name -> dtype).  Every
  backend stores exactly these seven columns; every consumer (fingerprinting,
  serialization, the columnar format) iterates this one list instead of
  hard-coding attribute names.
- :class:`StoreBackend` — the protocol a backend implements: row count,
  read-only column views, and the three intern tables.
- :class:`MemoryBackend` — plain NumPy arrays in RAM (the original store,
  extracted verbatim).
- ``repro.ras.columnar.ColumnarBackend`` — memory-mapped segment files on
  disk for logs that do not fit in RAM.

Columns handed out by a backend are **read-only views**: mutating a store's
columns in place would silently desynchronize derived stores, fingerprints
and on-disk segments, so the arrays carry ``writeable=False`` and writes to
store columns outside ``repro.ras`` are a lint error (RL014).

``REPRO_STORE_BACKEND=columnar`` routes every store built through the public
constructors onto the columnar backend (spilled to a session-scoped temp
directory) — the CI matrix runs the whole suite that way to prove the two
backends are observationally identical.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from itertools import islice
from typing import Iterable, Iterator, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

#: Canonical column schema, in fingerprint/serialization order.
COLUMNS: tuple[tuple[str, np.dtype], ...] = (
    ("times", np.dtype(np.int64)),
    ("severities", np.dtype(np.int8)),
    ("facilities", np.dtype(np.int8)),
    ("jobs", np.dtype(np.int64)),
    ("location_ids", np.dtype(np.int32)),
    ("entry_ids", np.dtype(np.int32)),
    ("subcat_ids", np.dtype(np.int32)),
)

#: Column names only, in schema order.
COLUMN_NAMES: tuple[str, ...] = tuple(name for name, _ in COLUMNS)

#: dtype per column name.
COLUMN_DTYPES: dict[str, np.dtype] = dict(COLUMNS)

#: Intern-table names, in fingerprint/serialization order.  ``locations``
#: backs ``location_ids``, ``entries`` backs ``entry_ids``, ``subcats``
#: backs ``subcat_ids``.
TABLE_NAMES: tuple[str, ...] = ("locations", "entries", "subcats")


class InternTable:
    """Bidirectional string <-> int id mapping shared across derived stores."""

    __slots__ = ("strings", "_index")

    def __init__(self, strings: Optional[Sequence[str]] = None) -> None:
        self.strings: list[str] = list(strings) if strings else []
        self._index: dict[str, int] = {s: i for i, s in enumerate(self.strings)}

    def intern(self, s: str) -> int:
        idx = self._index.get(s)
        if idx is None:
            idx = len(self.strings)
            self.strings.append(s)
            self._index[s] = idx
        return idx

    def intern_all(self, strings: Iterable[str]) -> list[int]:
        """Ids of ``strings`` in order, interning new ones by first appearance."""
        index = self._index
        ids = [index.setdefault(s, len(index)) for s in strings]
        if len(index) > len(self.strings):
            self.strings.extend(islice(index, len(self.strings), None))
        return ids

    def __getitem__(self, idx: int) -> str:
        return self.strings[idx]

    def __len__(self) -> int:
        return len(self.strings)

    def copy(self) -> "InternTable":
        return InternTable(self.strings)

    def __getstate__(self) -> list[str]:
        return self.strings

    def __setstate__(self, strings: list[str]) -> None:
        self.strings = list(strings)
        self._index = {s: i for i, s in enumerate(self.strings)}


def readonly_view(arr: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``arr`` (the caller's array is untouched)."""
    view = arr.view()
    view.flags.writeable = False
    return view


@runtime_checkable
class StoreBackend(Protocol):
    """Where an :class:`~repro.ras.store.EventStore`'s bytes actually live.

    Implementations must return the *same* array object on repeated
    ``column`` calls (consumers rely on cheap repeated access) and the
    arrays must be read-only.  ``storage_path`` is ``None`` for in-memory
    backends and the store directory for out-of-core ones — the evaluation
    engine uses it to ship a path to worker processes instead of the bytes.
    """

    def __len__(self) -> int: ...

    def column(self, name: str) -> np.ndarray: ...

    def table(self, name: str) -> InternTable: ...

    @property
    def kind(self) -> str: ...

    @property
    def storage_path(self) -> Optional[str]: ...


class MemoryBackend:
    """The original in-RAM NumPy arrays, behind the backend interface."""

    __slots__ = ("_columns", "_tables")

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        tables: dict[str, InternTable],
    ) -> None:
        if set(columns) != set(COLUMN_NAMES):
            raise ValueError(
                f"backend needs columns {COLUMN_NAMES}, got {sorted(columns)}"
            )
        if set(tables) != set(TABLE_NAMES):
            raise ValueError(
                f"backend needs tables {TABLE_NAMES}, got {sorted(tables)}"
            )
        n = len(columns["times"])
        for name in COLUMN_NAMES:
            if len(columns[name]) != n:
                raise ValueError(
                    f"column {name} has length {len(columns[name])}, expected {n}"
                )
        self._columns = {
            name: readonly_view(columns[name]) for name in COLUMN_NAMES
        }
        self._tables = tables

    def __len__(self) -> int:
        return len(self._columns["times"])

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def table(self, name: str) -> InternTable:
        return self._tables[name]

    @property
    def kind(self) -> str:
        return "memory"

    @property
    def storage_path(self) -> Optional[str]:
        return None

    # MemoryBackend participates in store pickling (the process-pool engine
    # ships in-memory stores to workers); only the raw data travels.
    def __getstate__(self) -> tuple[dict[str, np.ndarray], dict[str, list[str]]]:
        return (
            dict(self._columns),
            {name: self._tables[name].strings for name in TABLE_NAMES},
        )

    def __setstate__(
        self, state: tuple[dict[str, np.ndarray], dict[str, list[str]]]
    ) -> None:
        columns, tables = state
        self._columns = {
            name: readonly_view(columns[name]) for name in COLUMN_NAMES
        }
        self._tables = {name: InternTable(tables[name]) for name in TABLE_NAMES}


def default_backend_kind() -> str:
    """The process-wide default backend: ``REPRO_STORE_BACKEND`` or memory."""
    raw = os.environ.get("REPRO_STORE_BACKEND", "").strip().lower()
    if not raw:
        return "memory"
    if raw not in ("memory", "columnar"):
        raise ValueError(
            f"REPRO_STORE_BACKEND must be 'memory' or 'columnar', got {raw!r}"
        )
    return raw


# Session-scoped spill root for REPRO_STORE_BACKEND=columnar: one temp tree,
# removed at interpreter exit (the bcolz_store temp-dir idiom).
_SPILL_ROOT: Optional[str] = None


def spill_dir() -> str:
    """A fresh directory under the session's spill root."""
    global _SPILL_ROOT
    if _SPILL_ROOT is None:
        _SPILL_ROOT = tempfile.mkdtemp(prefix="repro-store-spill-")
        atexit.register(shutil.rmtree, _SPILL_ROOT, ignore_errors=True)
    return tempfile.mkdtemp(prefix="store-", dir=_SPILL_ROOT)


def iter_column_chunks(
    arr: np.ndarray, chunk_rows: int
) -> Iterator[np.ndarray]:
    """Yield contiguous read-only slices of ``arr`` of at most ``chunk_rows``."""
    if chunk_rows <= 0:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    for lo in range(0, len(arr), chunk_rows):
        yield arr[lo : lo + chunk_rows]

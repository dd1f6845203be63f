"""Stable content fingerprints for cache keys.

A cache key must change whenever anything that influenced the artifact
changed, and *only* then.  Two ingredients:

- :func:`store_fingerprint` — a SHA-256 digest over an
  :class:`~repro.ras.store.EventStore`'s columns (raw bytes plus dtype
  markers) and intern tables.  Two stores with identical events produce
  identical digests regardless of how they were constructed; any edit to
  any column or table changes the digest.
- :func:`combine_tokens` — canonical composition of named tokens into one
  key (sorted keys, JSON encoding, SHA-256), so key construction is
  order-insensitive and collision-resistant.
"""

from __future__ import annotations

import hashlib
import json
from typing import Union

import numpy as np

from repro.ras.backend import COLUMN_NAMES, TABLE_NAMES
from repro.ras.store import EventStore

Token = Union[str, int, float, bool, None]


def store_fingerprint(events: EventStore) -> str:
    """Hex SHA-256 digest of a store's full content.

    Covers every column (with its dtype, so a re-typed column never
    collides) and every intern table (with separators, so table boundaries
    cannot alias).  Cost is one pass over the raw bytes — microseconds per
    megabyte, negligible next to a single mining run.

    The digest is backend-independent: columns are read through the
    schema-ordered accessors, so a memory-mapped columnar store and its
    in-memory twin hash to the same key and the artifact cache never forks
    on storage layout.
    """
    h = hashlib.sha256()
    for name in COLUMN_NAMES:
        arr = np.ascontiguousarray(events.column(name))
        h.update(name.encode("utf-8"))
        h.update(str(arr.dtype).encode("utf-8"))
        h.update(arr.tobytes())
        h.update(b"\x00")
    for table_name in TABLE_NAMES:
        h.update(table_name.encode("utf-8"))
        # Every string followed by the separator, hashed in one update.
        strings = events.table(table_name).strings
        h.update("".join(s + "\x1f" for s in strings).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def combine_tokens(**tokens: Token) -> str:
    """Hex SHA-256 digest of a named token set (canonical JSON, sorted keys)."""
    payload = json.dumps(tokens, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

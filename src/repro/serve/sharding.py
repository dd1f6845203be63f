"""Stream partitioning for the detector pool.

A Blue Gene/L installation is not one event stream: midplanes fail (and are
serviced) independently, and jobs land on disjoint partitions.  The serving
engine therefore shards the incoming stream by a *key* and runs one detector
per shard.  Shard assignment must be

- **deterministic** — the same event always lands on the same shard, across
  processes and replay orders (no ``hash()``, which is salted per process);
- **vectorizable** — whole stores are partitioned in one pass over the
  (small) set of distinct locations, never per row.

``crc32`` of the key string satisfies both; job ids shard by value directly.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np

from repro.ras.store import EventStore
from repro.util.validation import check_positive

#: Supported shard keys.
SHARD_KEYS = ("midplane", "job")


def midplane_of(location: str) -> str:
    """The midplane prefix of a location code (``R00-M1-N03-C02`` -> ``R00-M1``).

    Locations above midplane granularity (a bare rack, a service card path,
    or free-form text) shard by their full string — stable, just coarser.
    """
    parts = location.split("-", 2)
    if len(parts) >= 2 and parts[1][:1] == "M":
        return parts[0] + "-" + parts[1]
    return location


def shard_of_key(key: str, shards: int) -> int:
    """Deterministic shard of one key string (process-stable, unsalted)."""
    return crc32(key.encode("utf-8")) % shards


def shard_ids(store: EventStore, key: str, shards: int) -> np.ndarray:
    """Per-row shard assignment for a whole store, vectorized.

    ``key="midplane"`` maps each interned location the store uses to its
    midplane and shards by ``crc32``; ``key="job"`` shards by job id.  A
    chunk cut by :meth:`~repro.ras.store.EventStore.select` shares its
    parent's whole intern table, so ``crc32`` runs only for the location
    ids present.  The rest is an O(n log n) ``np.unique`` over the store's
    own rows, independent of the table size; the per-row step is one
    fancy-indexing or modulo operation.
    """
    check_positive(shards, "shards")
    if key == "job":
        return (store.jobs % shards).astype(np.int64)
    if key == "midplane":
        locations = store.location_table
        used, inverse = np.unique(store.location_ids, return_inverse=True)
        table = np.array(
            [shard_of_key(midplane_of(locations[i]), shards) for i in used.tolist()],
            dtype=np.int64,
        )
        return table[inverse]
    raise ValueError(f"unknown shard key {key!r}; choose from {SHARD_KEYS}")

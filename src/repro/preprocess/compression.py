"""Temporal and spatial compression of RAS records (paper §3.1 steps 2-3).

Both compressions are instances of one operation: *group* records by a key,
*cluster* each group's records in time (a record joins the current cluster
when its gap to the previous record is at most the threshold), and keep one
*representative* per cluster.

- **Temporal compression** groups by (JOB_ID, LOCATION): duplicates produced
  by one polling agent re-reporting the same fault.
- **Spatial compression** groups by (JOB_ID, ENTRY_DATA): the same fault
  reported by many locations of the job's partition.

The paper uses a 300 s threshold for both, observing that larger thresholds
gain no further FAILURE compression while risking the merger of genuinely
distinct events.

One engine, :class:`ClusterCompressor`, runs both.  It consumes a store one
contiguous chunk at a time (a whole store is one chunk), and every chunk is
fully vectorized: one stable ``lexsort`` over (key..., time), one pass of
boundary detection, and ``reduceat``-style reductions — no Python loop over
records or clusters, which matters on the 4-million-record full-scale log.
The state carried between chunks is one row per cluster that a later record
could still join, so a columnar store larger than RAM compresses in the
memory of one chunk.

Representative choice: within a cluster the *earliest record of the highest
severity present* survives.  For clusters of true duplicates (identical
entries) this is simply the first report; for mixed clusters produced by the
paper-literal (JOB_ID, LOCATION) key it guarantees a FATAL record is never
shadowed by an INFO record that happened to arrive first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ras.store import EventStore
from repro.util.validation import check_positive

#: The paper's compression threshold, seconds.
DEFAULT_THRESHOLD: int = 300

#: Key columns per temporal key mode; the last one is the primary sort key.
_TEMPORAL_KEYS: dict[str, tuple[str, ...]] = {
    "job_location": ("location_ids", "jobs"),
    "job_location_entry": ("entry_ids", "location_ids", "jobs"),
}

#: Spatial compression's key columns: ENTRY_DATA and JOB_ID.
SPATIAL_KEYS: tuple[str, ...] = ("entry_ids", "jobs")

_KEY_COLUMNS = frozenset({"entry_ids", "location_ids", "jobs"})


@dataclass
class CompressionStats:
    """Bookkeeping for one compression pass."""

    input_records: int = 0
    output_records: int = 0
    clusters_merged: int = 0
    #: records removed per severity value (index = Severity int value).
    removed_by_severity: np.ndarray = field(
        default_factory=lambda: np.zeros(6, dtype=np.int64)
    )

    @property
    def removed(self) -> int:
        return self.input_records - self.output_records

    @property
    def compression_ratio(self) -> float:
        """Fraction of records removed (0.0 when the input was empty)."""
        if self.input_records == 0:
            return 0.0
        return self.removed / self.input_records


def temporal_keys(key_mode: str) -> tuple[str, ...]:
    """The key columns of a temporal key mode; ``ValueError`` if unknown."""
    try:
        return _TEMPORAL_KEYS[key_mode]
    except KeyError:
        raise ValueError(f"unknown key_mode: {key_mode!r}") from None


class ClusterCompressor:
    """Chunk-at-a-time clustering by key and time gap, one survivor each.

    Feed contiguous chunks of one time-sorted store in order via
    :meth:`push` (the chunks :meth:`EventStore.iter_chunks` yields), then
    call :meth:`finish` for the surviving global row indices and stats.

    Each push puts the carried rows — one per cluster still open, holding
    its key, last time, maximum severity, representative row and size — in
    front of the chunk and clusters both together.  A carried row sorts
    before its key's chunk records (stable sort, time no later than theirs),
    so the gap test joins a cluster across the chunk boundary, and the
    cluster's first maximum-severity row stays its representative unless
    the chunk strictly raises the maximum.  The result is therefore the
    same for every chunking, the whole store as one chunk included.
    """

    def __init__(
        self, keys: Sequence[str], threshold: float = DEFAULT_THRESHOLD
    ) -> None:
        check_positive(threshold, "threshold")
        if not keys or not set(keys) <= _KEY_COLUMNS:
            raise ValueError(f"unknown key columns: {tuple(keys)!r}")
        self.keys = tuple(keys)
        self.threshold = threshold
        # Open clusters as columns: keys..., last time, max severity,
        # representative row, size.
        self._open: list[np.ndarray] = []
        self._rows = 0
        self._sev_in = np.zeros(6, dtype=np.int64)
        self._kept_sev = np.zeros(6, dtype=np.int64)
        self._reps: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        self._merged = 0

    def push(self, chunk: EventStore) -> None:
        """Consume the next contiguous chunk (it must follow the previous)."""
        n = len(chunk)
        if n == 0:
            return
        nk = len(self.keys)
        carried = self._open
        c = len(carried[0]) if carried else 0
        cols = [chunk.column(k) for k in self.keys]
        cols += [chunk.times, chunk.severities]
        self._sev_in += np.bincount(cols[-1], minlength=6)
        if c:
            cols = [np.concatenate(pair) for pair in zip(carried, cols)]
        # lexsort's last key is primary: keys contiguous, then time.
        order = np.lexsort([cols[nk], *cols[:nk]])
        *key_cols, t, sev = [col[order] for col in cols]

        m = len(t)
        same_key = np.ones(m - 1, dtype=bool)
        for k in key_cols:
            same_key &= k[1:] == k[:-1]
        new_cluster = np.ones(m, dtype=bool)
        new_cluster[1:] = ~(same_key & ((t[1:] - t[:-1]) <= self.threshold))
        starts = np.flatnonzero(new_cluster)
        last = np.append(starts[1:], m) - 1
        cluster_id = np.cumsum(new_cluster) - 1

        max_sev = np.maximum.reduceat(sev, starts)
        # The first max-severity row of each cluster: rows are in time order
        # within a cluster and every cluster has at least one such row.
        max_rows = np.flatnonzero(sev == max_sev[cluster_id])
        max_ids = cluster_id[max_rows]
        src = order[max_rows[np.append(True, max_ids[1:] != max_ids[:-1])]]
        reps = src + (self._rows - c)
        sizes = np.diff(starts, append=m)
        if c:
            # A key has at most one carried row, which brings its cluster's
            # representative and the size it had so far.
            from_carried = src < c
            reps[from_carried] = carried[nk + 2][src[from_carried]]
            at = np.flatnonzero(order < c)
            sizes[cluster_id[at]] += carried[nk + 3][order[at]] - 1
        self._rows += n
        state = [k[last] for k in key_cols] + [t[last], max_sev, reps, sizes]

        # A later record is no earlier than this chunk's last one, so only a
        # cluster within the threshold of that time can still grow: at most
        # one per key, as a key's earlier clusters ended before a wider gap.
        still_open = (t.max() - state[nk]) <= self.threshold
        self._close([col[~still_open] for col in state])
        self._open = [col[still_open] for col in state]

    def _close(self, clusters: list[np.ndarray]) -> None:
        nk = len(self.keys)
        max_sev, reps, sizes = clusters[nk + 1 :]
        self._kept_sev += np.bincount(max_sev, minlength=6)
        self._reps.append(reps)
        self._merged += int(np.count_nonzero(sizes > 1))

    def finish(self) -> tuple[np.ndarray, CompressionStats]:
        """Close all open clusters; returns (sorted rep rows, stats)."""
        if self._open:
            self._close(self._open)
            self._open = []
        reps = np.sort(np.concatenate(self._reps))
        stats = CompressionStats(
            input_records=self._rows,
            output_records=len(reps),
            clusters_merged=self._merged,
            removed_by_severity=self._sev_in - self._kept_sev,
        )
        return reps, stats


def _compress(
    store: EventStore, keys: Sequence[str], threshold: float
) -> tuple[EventStore, CompressionStats]:
    compressor = ClusterCompressor(keys, threshold)
    compressor.push(store)
    rows, stats = compressor.finish()
    return store.select(rows), stats


def temporal_compress(
    store: EventStore,
    threshold: float = DEFAULT_THRESHOLD,
    key_mode: str = "job_location",
) -> tuple[EventStore, CompressionStats]:
    """Coalesce re-reports at a single location (paper step 2).

    Parameters
    ----------
    key_mode:
        ``"job_location"`` (paper-literal: identical JOB_ID and LOCATION) or
        ``"job_location_entry"`` (conservative variant that additionally
        requires identical ENTRY_DATA, so distinct event types at one
        location are never merged — used by the ablation bench).
    """
    return _compress(store, temporal_keys(key_mode), threshold)


def spatial_compress(
    store: EventStore,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[EventStore, CompressionStats]:
    """Drop cross-location duplicates (paper step 3).

    Records with the same ENTRY_DATA and JOB_ID within the threshold are the
    same fault reported by different locations of the partition; one
    representative survives.
    """
    return _compress(store, SPATIAL_KEYS, threshold)

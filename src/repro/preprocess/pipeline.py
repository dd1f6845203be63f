"""The complete Phase-1 pipeline: temporal -> categorize -> spatial.

``PreprocessPipeline.run`` takes the raw record store and returns a
:class:`PreprocessResult` carrying the unique-event store plus the statistics
every report in the paper's §3.1 is built from.

Temporal compression runs first, on the *raw* store, fed chunk by chunk
through :class:`~repro.preprocess.compression.ClusterCompressor`; only its
survivors are materialized and classified.  The order is free because the
classifier depends solely on each row's ENTRY_DATA string and the temporal
keys never involve the subcategory column, so classification commutes with
temporal compression.  The working set is one chunk plus the open clusters
(zero-copy slices on the columnar backend), which lets Phase 1 consume a
store far larger than RAM; on an in-RAM store the chunks are views too.

An optional *event filter* hook runs after compression; the paper's future
work ("filtering out this ambiguity of failures and analyzing only those
failures which will impact user jobs", citing Oliner et al.) plugs in here —
see :func:`job_impacting_filter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.obs import get_registry
from repro.preprocess.compression import (
    DEFAULT_THRESHOLD,
    ClusterCompressor,
    CompressionStats,
    spatial_compress,
    temporal_keys,
)
from repro.ras.columnar import DEFAULT_CHUNK_EVENTS
from repro.ras.events import NO_JOB
from repro.ras.store import EventStore
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.validation import check_positive

#: Signature of a post-compression event filter: returns a keep-mask.
EventFilter = Callable[[EventStore], np.ndarray]


@dataclass
class PreprocessResult:
    """Output of a full Phase-1 run."""

    events: EventStore
    raw_records: int
    temporal_stats: CompressionStats
    spatial_stats: CompressionStats
    filtered_out: int = 0

    @property
    def unique_events(self) -> int:
        return len(self.events)

    @property
    def overall_compression(self) -> float:
        """Fraction of raw records eliminated end to end."""
        if self.raw_records == 0:
            return 0.0
        return 1.0 - self.unique_events / self.raw_records


def job_impacting_filter(store: EventStore) -> np.ndarray:
    """Keep mask for events attributable to a user job.

    Implements the hook the paper leaves as future work: fatal events not
    associated with any job (JOB_ID absent) cannot abort a user job and may
    be excluded from prediction targets.  Non-fatal events always pass — they
    remain useful as precursors.
    """
    return (~store.fatal_mask()) | (store.jobs != NO_JOB)


class PreprocessPipeline:
    """Temporal compression + categorization + spatial compression."""

    def __init__(
        self,
        classifier: Optional[TaxonomyClassifier] = None,
        threshold: float = DEFAULT_THRESHOLD,
        temporal_key_mode: str = "job_location",
        event_filter: Optional[EventFilter] = None,
    ) -> None:
        check_positive(threshold, "threshold")
        self._temporal_keys = temporal_keys(temporal_key_mode)
        self.classifier = classifier or TaxonomyClassifier()
        self.threshold = threshold
        self.event_filter = event_filter

    def run(self, raw: EventStore) -> PreprocessResult:
        """Run all Phase-1 steps on a raw record store."""
        obs = get_registry()
        with obs.span("phase1.temporal"):
            compressor = ClusterCompressor(self._temporal_keys, self.threshold)
            for chunk in raw.iter_chunks(DEFAULT_CHUNK_EVENTS):
                compressor.push(chunk)
            rows, t_stats = compressor.finish()
            survivors = raw.select(rows)
        with obs.span("phase1.classify"):
            after_temporal = self.classifier.classify_store(survivors)
        with obs.span("phase1.spatial"):
            after_spatial, s_stats = spatial_compress(
                after_temporal, self.threshold
            )
        filtered_out = 0
        events = after_spatial
        if self.event_filter is not None:
            with obs.span("phase1.filter"):
                keep = self.event_filter(events)
                filtered_out = int(len(events) - np.count_nonzero(keep))
                events = events.select(keep)
        result = PreprocessResult(
            events=events,
            raw_records=len(raw),
            temporal_stats=t_stats,
            spatial_stats=s_stats,
            filtered_out=filtered_out,
        )
        obs.counter("preprocess.records_in", len(raw))
        obs.counter("preprocess.events_out", len(events))
        obs.counter(
            "preprocess.dropped",
            t_stats.input_records - t_stats.output_records,
            stage="temporal",
        )
        obs.counter(
            "preprocess.dropped",
            s_stats.input_records - s_stats.output_records,
            stage="spatial",
        )
        obs.counter("preprocess.filtered_out", filtered_out)
        obs.gauge("preprocess.compression_ratio", result.overall_compression)
        return result

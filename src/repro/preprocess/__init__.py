"""Phase 1 — event preprocessing (paper §3.1).

Three steps turn the raw, massively redundant RAS repository into the unique
event stream the predictors learn from:

1. **categorization** — :class:`repro.taxonomy.TaxonomyClassifier`;
2. **temporal compression** at a single location
   (:func:`repro.preprocess.compression.temporal_compress`);
3. **spatial compression** across locations
   (:func:`repro.preprocess.compression.spatial_compress`).

:class:`repro.preprocess.pipeline.PreprocessPipeline` runs all three —
temporal compression first, so only its survivors are categorized — and
collects statistics; :mod:`repro.preprocess.summary` renders the paper's
Table 1 and Table 4.
"""

from repro.preprocess.compression import (
    DEFAULT_THRESHOLD,
    CompressionStats,
    spatial_compress,
    temporal_compress,
)
from repro.preprocess.pipeline import PreprocessPipeline, PreprocessResult
from repro.preprocess.summary import (
    category_fatal_counts,
    log_summary,
    severity_breakdown,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "CompressionStats",
    "temporal_compress",
    "spatial_compress",
    "PreprocessPipeline",
    "PreprocessResult",
    "category_fatal_counts",
    "log_summary",
    "severity_breakdown",
]

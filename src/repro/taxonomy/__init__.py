"""Hierarchical RAS event taxonomy (paper §3.1, Table 3).

The paper's first contribution inside Phase 1 is a two-level categorization
of Blue Gene/L RAS events: 8 main categories (by subsystem) refined into 101
subcategories.  This subpackage holds:

- :mod:`repro.taxonomy.categories` — the 8 main categories;
- :mod:`repro.taxonomy.subcategories` — the full 101-entry catalog, each
  entry carrying its category, default severity, reporting facility, the
  hardware level it occurs at, message templates (used by the synthetic
  generator) and match patterns (used by the classifier);
- :mod:`repro.taxonomy.classifier` — the hierarchical classifier that labels
  events from their LOCATION, FACILITY and ENTRY_DATA fields.
"""

from repro.taxonomy.categories import MainCategory, CATEGORY_ORDER
from repro.taxonomy.subcategories import (
    CATALOG,
    FATAL_SUBCATS,
    NONFATAL_SUBCATS,
    Subcategory,
    by_category,
    by_name,
    validate_catalog,
)
from repro.taxonomy.classifier import TaxonomyClassifier, OTHER_FALLBACK

__all__ = [
    "MainCategory",
    "CATEGORY_ORDER",
    "CATALOG",
    "FATAL_SUBCATS",
    "NONFATAL_SUBCATS",
    "Subcategory",
    "by_category",
    "by_name",
    "validate_catalog",
    "TaxonomyClassifier",
    "OTHER_FALLBACK",
]

"""Hierarchical event categorization (paper §3.1, step 1 of Phase 1).

Events are categorized "based on the subsystem in which they occur, according
to the LOCATION field, the FACILITY field, and the description listed in the
ENTRY DATA field".  The classifier here implements that hierarchy:

1. **ENTRY_DATA match** — each of the 101 subcategories has a distinctive
   phrase; the longest matching phrase wins.  This resolves nearly all
   records of well-formed logs.
2. **FACILITY/LOCATION fallback** — records whose text matches no known
   phrase (truncated lines, unknown messages) are assigned the
   :data:`OTHER_FALLBACK` pseudo-label, and their *main* category is inferred
   from the reporting facility and the hardware level of the location, so
   category-level summaries remain complete.

``classify_store`` exploits the columnar :class:`~repro.ras.store.EventStore`
representation: ENTRY_DATA strings are interned, so each distinct string is
classified exactly once regardless of how many million records share it.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.bgl.locations import LocationKind, location_kind
from repro.ras.fields import Facility
from repro.ras.store import UNCLASSIFIED, EventStore
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.subcategories import CATALOG, Subcategory

#: Pseudo-subcategory for records matching no catalog pattern.  Counted under
#: :attr:`MainCategory.OTHER` ("other" is the paper's catch-all bucket).
OTHER_FALLBACK: str = "uncategorized"

#: Distinct ENTRY_DATA strings the per-entry label memo holds at most.
_ENTRY_CACHE_MAX = 8192

#: Facility -> main category used by the fallback stage.
_FACILITY_CATEGORY: dict[Facility, MainCategory] = {
    Facility.APP: MainCategory.APPLICATION,
    Facility.KERNEL: MainCategory.KERNEL,
    Facility.DISCOVERY: MainCategory.NODECARD,
    Facility.MMCS: MainCategory.MIDPLANE,
    Facility.LINKCARD: MainCategory.MIDPLANE,
    Facility.MONITOR: MainCategory.OTHER,
    Facility.HARDWARE: MainCategory.OTHER,
    Facility.CMCS: MainCategory.OTHER,
    Facility.BGLMASTER: MainCategory.OTHER,
    Facility.SERV_NET: MainCategory.NETWORK,
}


class TaxonomyClassifier:
    """Labels RAS events with one of the 101 subcategories.

    Parameters
    ----------
    catalog:
        The subcategory catalog; defaults to the full paper catalog.
    """

    def __init__(self, catalog: Iterable[Subcategory] = CATALOG) -> None:
        self.catalog: tuple[Subcategory, ...] = tuple(catalog)
        # Longest pattern first, so a more specific phrase beats a shorter
        # one if a message happens to contain both.
        self._patterns: list[tuple[str, Subcategory]] = sorted(
            ((sc.pattern.lower(), sc) for sc in self.catalog),
            key=lambda p: -len(p[0]),
        )
        self._by_name = {sc.name: sc for sc in self.catalog}
        #: Label table used for store classification: catalog order, then the
        #: fallback label at the last index.
        self.label_names: list[str] = [sc.name for sc in self.catalog] + [
            OTHER_FALLBACK
        ]
        self._label_index = {n: i for i, n in enumerate(self.label_names)}
        self._entry_cache: dict[str, int] = {}

    # -- single record ---------------------------------------------------- #

    def classify_entry(self, entry_data: str) -> Optional[Subcategory]:
        """Subcategory whose phrase occurs in ``entry_data`` (longest match).

        Returns ``None`` when no catalog phrase matches.
        """
        low = entry_data.lower()
        for pattern, sc in self._patterns:
            if pattern in low:
                return sc
        return None

    def classify(
        self, entry_data: str, facility: Optional[Facility] = None
    ) -> str:
        """Full hierarchical classification to a label name.

        Returns a subcategory name, or :data:`OTHER_FALLBACK` when the text
        matches nothing (the facility argument only matters for
        :meth:`fallback_category`, it is accepted here for API symmetry).
        Answers come from the per-entry memo shared with
        :meth:`classify_store`.
        """
        return self.label_names[self._label_id_for_entry(entry_data)]

    def fallback_category(
        self, facility: Facility, location: Optional[str] = None
    ) -> MainCategory:
        """Main category for an unmatched record, from FACILITY + LOCATION.

        The location refines KERNEL-facility records: messages reported by an
        I/O node's kernel concern I/O streams, not the compute kernel.
        """
        cat = _FACILITY_CATEGORY.get(facility, MainCategory.OTHER)
        if location is not None and facility is Facility.KERNEL:
            try:
                kind = location_kind(location)
            except ValueError:
                return cat
            if kind is LocationKind.IO_NODE:
                return MainCategory.IOSTREAM
        return cat

    def category_of_label(self, label: str) -> MainCategory:
        """Main category of a label name (fallback label -> OTHER)."""
        if label == OTHER_FALLBACK:
            return MainCategory.OTHER
        return self._by_name[label].category

    def label_is_fatal(self, label: str) -> bool:
        """True if a label names a fatal subcategory (fallback is non-fatal)."""
        if label == OTHER_FALLBACK:
            return False
        return self._by_name[label].is_fatal

    # -- bulk, columnar ----------------------------------------------------#

    def _label_id_for_entry(self, entry: str) -> int:
        cached = self._entry_cache.get(entry)
        if cached is not None:
            return cached
        sc = self.classify_entry(entry)
        idx = self._label_index[sc.name if sc is not None else OTHER_FALLBACK]
        if len(self._entry_cache) >= _ENTRY_CACHE_MAX:
            self._entry_cache.clear()  # an open vocabulary cannot grow memory
        self._entry_cache[entry] = idx
        return idx

    def classify_store(self, store: EventStore) -> EventStore:
        """Return a copy of ``store`` with the subcategory column filled in.

        Each distinct interned ENTRY_DATA string is classified once; the
        resulting map is applied to all rows with one fancy-indexing
        operation.
        """
        if len(store) == 0:
            return store.with_subcat_ids(
                np.empty(0, dtype=np.int32), self.label_names
            )
        entry_map = np.array(
            [self._label_id_for_entry(e) for e in store.entry_table],
            dtype=np.int32,
        )
        subcat_ids = entry_map[store.entry_ids]
        return store.with_subcat_ids(subcat_ids, self.label_names)

    def main_category_ids(self, store: EventStore) -> np.ndarray:
        """Per-row main-category index (order of ``MainCategory``).

        Requires a store previously labeled by :meth:`classify_store`; rows
        still :data:`~repro.ras.store.UNCLASSIFIED` raise ``ValueError``.
        """
        if len(store) and np.any(store.subcat_ids == UNCLASSIFIED):
            raise ValueError("store has unclassified rows; run classify_store first")
        cats = list(MainCategory)
        cat_index = {c: i for i, c in enumerate(cats)}
        table = np.array(
            [cat_index[self.category_of_label(name)] for name in store.subcat_table],
            dtype=np.int8,
        )
        if len(store) == 0:
            return np.empty(0, dtype=np.int8)
        return table[store.subcat_ids]

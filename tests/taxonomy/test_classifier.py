"""Tests for repro.taxonomy.classifier."""

import pytest

from repro.ras.fields import Facility
from repro.ras.store import EventStore
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.classifier import OTHER_FALLBACK, TaxonomyClassifier
from repro.taxonomy.subcategories import CATALOG
from tests.conftest import make_event


@pytest.fixture(scope="module")
def clf():
    return TaxonomyClassifier()


def test_every_template_classifies_to_its_subcategory(clf):
    for sc in CATALOG:
        for template in sc.templates:
            assert clf.classify(template) == sc.name


def test_classification_case_insensitive(clf):
    sc = CATALOG[0]
    assert clf.classify(sc.templates[0].upper()) == sc.name


def test_unknown_text_falls_back(clf):
    assert clf.classify("completely unknown gibberish 123") == OTHER_FALLBACK
    assert clf.classify_entry("zzz") is None


def test_longest_pattern_wins(clf):
    # A message containing both a short and a longer known phrase must map
    # to the longer (more specific) one.
    long_sc = max(CATALOG, key=lambda sc: len(sc.pattern))
    short_sc = min(CATALOG, key=lambda sc: len(sc.pattern))
    combined = f"{short_sc.pattern} ; {long_sc.pattern}"
    assert clf.classify(combined) == long_sc.name


def test_fallback_category_by_facility(clf):
    assert clf.fallback_category(Facility.APP) is MainCategory.APPLICATION
    assert clf.fallback_category(Facility.DISCOVERY) is MainCategory.NODECARD
    assert clf.fallback_category(Facility.BGLMASTER) is MainCategory.OTHER


def test_fallback_category_io_node_kernel(clf):
    # KERNEL-facility messages from an I/O node concern I/O streams.
    assert (
        clf.fallback_category(Facility.KERNEL, "R00-M0-N00-I00")
        is MainCategory.IOSTREAM
    )
    assert (
        clf.fallback_category(Facility.KERNEL, "R00-M0-N00-C00")
        is MainCategory.KERNEL
    )
    # Invalid location degrades gracefully.
    assert clf.fallback_category(Facility.KERNEL, "???") is MainCategory.KERNEL


def test_category_of_label(clf):
    assert clf.category_of_label("torusFailure") is MainCategory.NETWORK
    assert clf.category_of_label(OTHER_FALLBACK) is MainCategory.OTHER


def test_label_is_fatal(clf):
    assert clf.label_is_fatal("socketReadFailure")
    assert not clf.label_is_fatal("timerInterruptInfo")
    assert not clf.label_is_fatal(OTHER_FALLBACK)


def test_classify_store_labels_all_rows(clf, tiny_store):
    labeled = clf.classify_store(tiny_store)
    assert labeled.subcat_of(3) == "loadProgramFailure"
    assert labeled.subcat_of(4) == "fanSpeedWarning"
    assert labeled.subcat_of(0) == OTHER_FALLBACK  # "alpha msg" unknown


def test_classify_store_empty(clf):
    labeled = clf.classify_store(EventStore.empty())
    assert len(labeled) == 0


def test_classify_store_interned_entries_classified_once(clf):
    # 1000 rows sharing one entry string: classification must be cheap and
    # produce identical labels.
    events = [
        make_event(time=i, entry="dma transfer error: descriptor retried")
        for i in range(1000)
    ]
    labeled = clf.classify_store(EventStore.from_events(events))
    assert set(labeled.subcat_counts()) == {"dmaError"}


def test_main_category_ids(clf, tiny_store):
    labeled = clf.classify_store(tiny_store)
    ids = clf.main_category_ids(labeled)
    cats = list(MainCategory)
    assert cats[ids[3]] is MainCategory.APPLICATION
    assert cats[ids[4]] is MainCategory.OTHER


def test_main_category_ids_requires_classified(clf, tiny_store):
    with pytest.raises(ValueError, match="unclassified"):
        clf.main_category_ids(tiny_store)


def test_generated_log_classification_coverage(clf, small_anl_log):
    """Every generated raw record classifies to a real subcategory."""
    labeled = clf.classify_store(small_anl_log.raw)
    counts = labeled.subcat_counts()
    assert OTHER_FALLBACK not in counts
    assert sum(counts.values()) == len(small_anl_log.raw)


def test_entry_memo_is_bounded():
    from repro.taxonomy.classifier import _ENTRY_CACHE_MAX

    clf = TaxonomyClassifier()
    for i in range(_ENTRY_CACHE_MAX + 10):
        assert clf.classify(f"unheard-of message {i}") == OTHER_FALLBACK
    assert 0 < len(clf._entry_cache) <= _ENTRY_CACHE_MAX
    # Entries evicted from the memo still classify the same way.
    sc = CATALOG[0]
    assert clf.classify(sc.templates[0]) == sc.name

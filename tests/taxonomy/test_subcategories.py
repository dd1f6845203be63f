"""Tests for repro.taxonomy.subcategories (Table 3 catalog)."""

import pytest

from repro.ras.fields import Severity
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.subcategories import (
    CATALOG,
    FATAL_SUBCATS,
    NONFATAL_SUBCATS,
    Subcategory,
    by_category,
    by_name,
    validate_catalog,
)


def test_catalog_validates():
    validate_catalog()


def test_catalog_has_101_subcategories():
    assert len(CATALOG) == 101


@pytest.mark.parametrize(
    "category,count",
    [
        (MainCategory.APPLICATION, 12),
        (MainCategory.IOSTREAM, 8),
        (MainCategory.KERNEL, 20),
        (MainCategory.MEMORY, 22),
        (MainCategory.MIDPLANE, 6),
        (MainCategory.NETWORK, 11),
        (MainCategory.NODECARD, 10),
        (MainCategory.OTHER, 12),
    ],
)
def test_table3_counts(category, count):
    assert len(by_category(category)) == count


@pytest.mark.parametrize(
    "name",
    [
        # Every example the paper's Table 3 lists must exist.
        "loadProgramFailure", "loginFailure", "socketReadFailure",
        "streamReadFailure", "alignmentFailure", "dataAddressFailure",
        "instructionAddressFailure", "cachePrefetchFailure", "dataReadFailure",
        "dataStoreFailure", "parityFailure", "linkcardFailure",
        "ciodSignalFailure", "midplaneServiceWarning", "ethernetFailure",
        "rtsFailure", "torusFailure", "torusConnectionErrorInfo",
        "nodecardDiscoveryError", "nodecardAssemblyWarning",
        "BGLMasterRestartInfo", "CMCSControlInfo", "linkcardServiceWarning",
    ],
)
def test_paper_examples_present(name):
    assert by_name(name).name == name


def test_fatal_nonfatal_partition():
    assert len(FATAL_SUBCATS) + len(NONFATAL_SUBCATS) == 101
    assert all(sc.is_fatal for sc in FATAL_SUBCATS)
    assert all(not sc.is_fatal for sc in NONFATAL_SUBCATS)


def test_every_category_has_a_fatal_subcategory():
    for cat in MainCategory:
        assert any(sc.is_fatal for sc in by_category(cat)), (
            f"{cat} has no fatal subcategory"
        )


def test_naming_convention_matches_severity():
    for sc in CATALOG:
        if sc.name.endswith("Info"):
            assert sc.severity is Severity.INFO, sc.name
        if sc.name.endswith("Warning"):
            assert sc.severity is Severity.WARNING, sc.name
        if sc.name.endswith("Failure"):
            assert sc.severity.is_fatal, sc.name


def test_by_name_unknown():
    with pytest.raises(KeyError):
        by_name("doesNotExist")


def test_templates_contain_pattern():
    for sc in CATALOG:
        for t in sc.templates:
            assert sc.pattern.lower() in t.lower()


def test_subcategory_rejects_bad_template():
    with pytest.raises(ValueError, match="does not contain"):
        Subcategory(
            name="x",
            category=MainCategory.OTHER,
            severity=Severity.INFO,
            facility=CATALOG[0].facility,
            location_kind=CATALOG[0].location_kind,
            pattern="needle",
            templates=("haystack only",),
        )


def test_validate_catalog_detects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        validate_catalog(list(CATALOG) + [CATALOG[0]])


def test_validate_catalog_detects_wrong_counts():
    with pytest.raises(ValueError):
        validate_catalog(CATALOG[:100])

"""Tests for repro.synth.profiles."""

import pytest

from repro.evaluation.paper import TABLE4, TABLE4_TOTALS
from repro.synth.profiles import (
    BurstConfig,
    NoiseSpec,
    SystemProfile,
    anl_profile,
    profile_by_name,
    sdsc_profile,
)
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.subcategories import by_name


def test_profiles_valid():
    anl = anl_profile()
    sdsc = sdsc_profile()
    assert anl.name == "ANL" and sdsc.name == "SDSC"


def test_fatal_budgets_match_paper_table4():
    for profile, name in ((anl_profile(), "ANL"), (sdsc_profile(), "SDSC")):
        for cat in MainCategory:
            assert profile.fatal_budget[cat] == TABLE4[name][cat]
        assert sum(profile.fatal_budget.values()) == TABLE4_TOTALS[name]


def test_machine_specs_match_paper():
    assert anl_profile().machine.io_nodes == 32
    assert sdsc_profile().machine.io_nodes == 128


def test_log_spans_match_paper():
    # ANL: 2005-01-21 .. 2006-04-28 (462 days); SDSC: 2004-12-06 .. 2006-02-21.
    assert anl_profile().days == pytest.approx(462, abs=1)
    assert sdsc_profile().days == pytest.approx(442, abs=1)
    assert anl_profile().start_epoch == 1106265600


def test_sdsc_quieter_than_anl():
    anl_rate = sum(n.rate_per_day for n in anl_profile().noise)
    sdsc_rate = sum(n.rate_per_day for n in sdsc_profile().noise)
    assert sdsc_rate < anl_rate / 2


def test_sdsc_higher_chain_confidence():
    """The paper: SDSC yields more high-confidence rules than ANL."""
    anl_conf = {t.key: t.confidence for t in anl_profile().chains}
    sdsc_conf = {t.key: t.confidence for t in sdsc_profile().chains}
    assert all(sdsc_conf[k] >= anl_conf[k] for k in anl_conf)


def test_sdsc_wider_chain_geometry():
    """SDSC's best rule-generation window (25 min) exceeds ANL's (15 min)."""
    anl_span = anl_profile().chains[0].body_span
    sdsc_span = sdsc_profile().chains[0].body_span
    assert sdsc_span > anl_span


def test_noise_subcategories_exist_and_nonfatal():
    for profile in (anl_profile(), sdsc_profile()):
        for spec in profile.noise:
            assert not by_name(spec.subcategory).is_fatal


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("torusFailure", 1.0)  # fatal
    with pytest.raises(ValueError):
        NoiseSpec("maskInfo", -1.0)


def test_burst_config_validation():
    with pytest.raises(ValueError):
        BurstConfig(mean_cluster_size=1.0)
    with pytest.raises(ValueError):
        BurstConfig(mean_cluster_size=4, lag=(100, 50))


def test_profile_fraction_validation():
    anl = anl_profile()
    with pytest.raises(ValueError, match="> 1"):
        SystemProfile(
            name="bad",
            machine=anl.machine,
            start_epoch=0,
            days=10,
            fatal_budget={MainCategory.NETWORK: 10},
            chain_fraction={MainCategory.NETWORK: 0.7},
            burst_fraction={MainCategory.NETWORK: 0.7},
            chains=anl.chains,
            burst=anl.burst,
            noise=(),
            duplication=anl.duplication,
        )


def test_profile_by_name():
    assert profile_by_name("anl").name == "ANL"
    assert profile_by_name("SDSC").name == "SDSC"
    with pytest.raises(KeyError):
        profile_by_name("LLNL")

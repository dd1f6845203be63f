"""Tests for repro.bgl.topology."""

import pytest

from repro.bgl.locations import location_kind, LocationKind
from repro.bgl.topology import ANL_SPEC, SDSC_SPEC, Machine, MachineSpec


def test_anl_spec_matches_paper():
    assert ANL_SPEC.compute_nodes == 1024
    assert ANL_SPEC.io_nodes == 32


def test_sdsc_spec_matches_paper():
    assert SDSC_SPEC.compute_nodes == 1024
    assert SDSC_SPEC.io_nodes == 128  # I/O rich configuration


def test_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec(racks=0)
    with pytest.raises(ValueError):
        MachineSpec(midplanes_per_rack=3)
    with pytest.raises(ValueError):
        MachineSpec(io_nodes_per_nodecard=-1)


def test_machine_enumeration_counts():
    m = Machine(ANL_SPEC)
    assert len(m.midplane_locations) == 2
    assert len(m.nodecard_locations) == 32
    assert len(m.chip_locations) == 1024
    assert len(m.io_node_locations) == 32
    assert len(m.linkcard_locations) == 8
    assert len(m.service_card_locations) == 2


def test_all_locations_valid():
    m = Machine(SDSC_SPEC)
    for loc in m.chip_locations[:10] + m.io_node_locations[:10]:
        location_kind(loc)  # raises if invalid
    assert location_kind(m.linkcard_locations[0]) is LocationKind.LINKCARD


def test_locations_unique():
    m = Machine(ANL_SPEC)
    everything = (
        m.midplane_locations
        + m.nodecard_locations
        + m.chip_locations
        + m.io_node_locations
        + m.linkcard_locations
        + m.service_card_locations
    )
    assert len(everything) == len(set(everything))


def test_chip_navigation_consistent():
    m = Machine(ANL_SPEC)
    card = m.nodecard_locations[5]
    chips = m.chips_of_nodecard(card)
    assert len(chips) == 32
    assert all(c.startswith(card) for c in chips)
    assert set(chips) <= set(m.chip_locations)


def test_nodecards_of_midplane():
    m = Machine(ANL_SPEC)
    cards = m.nodecards_of_midplane(m.midplane_locations[1])
    assert len(cards) == 16
    assert set(cards) <= set(m.nodecard_locations)


def test_multi_rack_machine():
    m = Machine(MachineSpec(racks=4))
    assert len(m.midplane_locations) == 8
    assert len(m.chip_locations) == 4096

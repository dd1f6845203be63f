"""Hardware tree of a Blue Gene/L machine.

A :class:`Machine` enumerates every hardware element of a configurable
system.  The defaults model the two single-rack systems of the paper:

- **ANL**: 1 rack = 2 midplanes x 16 node cards x 32 compute chips
  (1024 compute nodes / 2048 processors) with 32 I/O nodes (1 per node card).
- **SDSC**: same compute complement but I/O-rich — 128 I/O nodes
  (4 per node card).

The topology is consumed by the job allocator (partitions are sets of node
cards) and by the CMCS simulator (which chips co-report a job fault, which
link card serves a midplane, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.bgl.locations import LocationKind, format_location


@dataclass(frozen=True)
class MachineSpec:
    """Dimensions of a Blue Gene/L installation."""

    racks: int = 1
    midplanes_per_rack: int = 2
    nodecards_per_midplane: int = 16
    chips_per_nodecard: int = 32
    io_nodes_per_nodecard: int = 1
    linkcards_per_midplane: int = 4

    def __post_init__(self) -> None:
        for name in (
            "racks",
            "midplanes_per_rack",
            "nodecards_per_midplane",
            "chips_per_nodecard",
            "linkcards_per_midplane",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.midplanes_per_rack <= 2:
            raise ValueError("midplanes_per_rack must be 1 or 2 (BG/L rack)")
        if self.io_nodes_per_nodecard < 0:
            raise ValueError("io_nodes_per_nodecard must be >= 0")

    @property
    def compute_nodes(self) -> int:
        """Total compute chips in the machine."""
        return (
            self.racks
            * self.midplanes_per_rack
            * self.nodecards_per_midplane
            * self.chips_per_nodecard
        )

    @property
    def io_nodes(self) -> int:
        """Total I/O nodes in the machine."""
        return (
            self.racks
            * self.midplanes_per_rack
            * self.nodecards_per_midplane
            * self.io_nodes_per_nodecard
        )

    @property
    def nodecards(self) -> int:
        """Total node cards in the machine."""
        return self.racks * self.midplanes_per_rack * self.nodecards_per_midplane


#: Spec of the ANL system (1024 compute nodes, 32 I/O nodes).
ANL_SPEC = MachineSpec(io_nodes_per_nodecard=1)

#: Spec of the SDSC system (1024 compute nodes, 128 I/O nodes — I/O rich).
SDSC_SPEC = MachineSpec(io_nodes_per_nodecard=4)


class Machine:
    """Enumerates the hardware elements of a machine and their locations.

    All location lists are materialized once (``cached_property``) — they are
    small (thousands of strings) and reused constantly by the generator.
    """

    def __init__(self, spec: MachineSpec = ANL_SPEC) -> None:
        self.spec = spec

    # -- enumeration ---------------------------------------------------- #

    @cached_property
    def midplane_locations(self) -> list[str]:
        """All midplane codes, rack-major order."""
        return [
            format_location(LocationKind.MIDPLANE, rack=r, midplane=m)
            for r in range(self.spec.racks)
            for m in range(self.spec.midplanes_per_rack)
        ]

    @cached_property
    def nodecard_locations(self) -> list[str]:
        """All node-card codes, midplane-major order."""
        return [
            format_location(LocationKind.NODECARD, rack=r, midplane=m, nodecard=n)
            for r in range(self.spec.racks)
            for m in range(self.spec.midplanes_per_rack)
            for n in range(self.spec.nodecards_per_midplane)
        ]

    @cached_property
    def chip_locations(self) -> list[str]:
        """All compute-chip codes, node-card-major order."""
        return [
            format_location(
                LocationKind.COMPUTE_CHIP, rack=r, midplane=m, nodecard=n, chip=c
            )
            for r in range(self.spec.racks)
            for m in range(self.spec.midplanes_per_rack)
            for n in range(self.spec.nodecards_per_midplane)
            for c in range(self.spec.chips_per_nodecard)
        ]

    @cached_property
    def io_node_locations(self) -> list[str]:
        """All I/O-node codes."""
        return [
            format_location(
                LocationKind.IO_NODE, rack=r, midplane=m, nodecard=n, ionode=i
            )
            for r in range(self.spec.racks)
            for m in range(self.spec.midplanes_per_rack)
            for n in range(self.spec.nodecards_per_midplane)
            for i in range(self.spec.io_nodes_per_nodecard)
        ]

    @cached_property
    def linkcard_locations(self) -> list[str]:
        """All link-card codes."""
        return [
            format_location(LocationKind.LINKCARD, rack=r, midplane=m, linkcard=l)
            for r in range(self.spec.racks)
            for m in range(self.spec.midplanes_per_rack)
            for l in range(self.spec.linkcards_per_midplane)
        ]

    @cached_property
    def service_card_locations(self) -> list[str]:
        """All service-card codes (one per midplane)."""
        return [
            format_location(LocationKind.SERVICE_CARD, rack=r, midplane=m)
            for r in range(self.spec.racks)
            for m in range(self.spec.midplanes_per_rack)
        ]

    # -- navigation ----------------------------------------------------- #

    def chips_of_nodecard(self, nodecard_loc: str) -> list[str]:
        """Compute-chip codes under one node card."""
        return [
            f"{nodecard_loc}-C{c:02d}" for c in range(self.spec.chips_per_nodecard)
        ]

    def nodecards_of_midplane(self, midplane_loc: str) -> list[str]:
        """Node-card codes under one midplane."""
        return [
            f"{midplane_loc}-N{n:02d}" for n in range(self.spec.nodecards_per_midplane)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(compute={self.spec.compute_nodes}, "
            f"io={self.spec.io_nodes}, nodecards={self.spec.nodecards})"
        )

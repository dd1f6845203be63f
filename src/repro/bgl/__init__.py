"""Blue Gene/L machine substrate.

The paper's pipeline exists because of how Blue Gene/L *produces* RAS data:
every compute chip of a job's partition runs a polling agent, so one fault
becomes many records; the machine is a strict hardware hierarchy (rack →
midplane → node card → compute chip, plus I/O nodes, link cards and service
cards) reflected in the LOCATION field; jobs span many chips.  This
subpackage models exactly those mechanisms:

- :mod:`repro.bgl.locations` — location-code grammar (parse/format/navigate).
- :mod:`repro.bgl.topology` — the hardware tree for a configurable machine
  (defaults match the single-rack ANL and SDSC systems).
- :mod:`repro.bgl.jobs` — job arrivals, partition allocation, and the
  time×location → job lookup the CMCS simulator needs.
- :mod:`repro.bgl.cmcs` — the CMCS polling/duplication simulator that turns
  unique ground-truth faults into the redundant raw log Phase 1 must clean.
- :mod:`repro.bgl.faults` — temporal point-process primitives (Poisson,
  burst/cluster, causal-chain) composed by :mod:`repro.synth`.
"""

from repro.bgl.locations import (
    LocationKind,
    SYSTEM_LOCATION,
    format_location,
    parse_location,
    parent_location,
    location_kind,
)
from repro.bgl.topology import Machine, MachineSpec
from repro.bgl.jobs import Job, JobTrace, JobWorkloadModel
from repro.bgl.cmcs import CmcsSimulator, DuplicationModel
from repro.bgl.faults import (
    poisson_times,
    burst_process,
    chain_instances,
)

__all__ = [
    "LocationKind",
    "SYSTEM_LOCATION",
    "format_location",
    "parse_location",
    "parent_location",
    "location_kind",
    "Machine",
    "MachineSpec",
    "Job",
    "JobTrace",
    "JobWorkloadModel",
    "CmcsSimulator",
    "DuplicationModel",
    "poisson_times",
    "burst_process",
    "chain_instances",
]

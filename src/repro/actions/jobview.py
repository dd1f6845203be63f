"""What the engine knows about the job allocation when it must decide.

Policies need to answer "which jobs run where, since when, how wide?" at
warning time.  Two providers implement the same :class:`JobView` protocol:

- :class:`TraceJobView` wraps a :class:`repro.bgl.jobs.JobTrace` — the
  exact schedule, available in replay/benchmark settings where the
  workload was simulated;
- :class:`StreamJobView` infers the allocation from the event stream
  itself (each RAS record carries the reporting job id and a location),
  which is all a live daemon ever sees.

Both are deterministic functions of their inputs: the stream view assigns
dense midplane indices in first-seen order and tracks job liveness with a
last-seen TTL, so feeding the same events in the same order — whole store
or chunk by chunk — reconstructs byte-identical state.  That invariance is
what lets the daemon's ledger match the one-shot replay ledger bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol

from repro.bgl.jobs import IDLE, JobTrace
from repro.serve.sharding import midplane_of

#: Default liveness window for stream-inferred jobs: a job with no event
#: for this long is presumed finished.  Mirrors the taxonomy's cluster gap
#: scale rather than any checkpoint price, hence not part of CostModel.
DEFAULT_JOB_TTL_SECONDS = 4 * 3600.0


@dataclass(frozen=True)
class RunningJob:
    """A job the view believes is running at the queried instant."""

    job_id: int
    start: int
    midplanes: tuple[int, ...]
    width_nodes: int


class JobView(Protocol):
    """The allocation queries policies and the engine rely on."""

    def running(self, now: float) -> List[RunningJob]:
        """Jobs running at ``now``, sorted by job id."""
        ...

    def occupant(self, midplane: int, now: float) -> Optional[RunningJob]:
        """The job occupying a midplane at ``now``, if any."""
        ...

    def midplane_index(self, location: str) -> int:
        """Dense index for an event location's midplane (-1 if unmappable)."""
        ...

    def n_midplanes(self) -> int:
        """Number of midplanes the view knows about (>= 1 once populated)."""
        ...

    def observe(self, time: float, location: str, job_id: int) -> None:
        """Absorb one event observation (no-op for exact-trace views)."""
        ...

    def observe_midplane(self, time: float, midplane: int, job_id: int) -> None:
        """:meth:`observe` with the location already resolved by :meth:`midplane_index`."""
        ...


class TraceJobView:
    """Exact allocation from a simulated :class:`JobTrace`."""

    def __init__(self, trace: JobTrace, *, nodes_per_midplane: int = 512) -> None:
        self._trace = trace
        self._nodes = nodes_per_midplane
        self._mp_index: Dict[str, int] = {
            midplane_of(loc): i
            for i, loc in enumerate(trace.machine.midplane_locations)
        }

    def running(self, now: float) -> List[RunningJob]:
        out: List[RunningJob] = []
        for job in self._trace.jobs:
            if job.start <= now < job.end:
                out.append(
                    RunningJob(
                        job_id=job.job_id,
                        start=job.start,
                        midplanes=job.midplane_indices,
                        width_nodes=self._nodes * len(job.midplane_indices),
                    )
                )
        out.sort(key=lambda j: j.job_id)
        return out

    def occupant(self, midplane: int, now: float) -> Optional[RunningJob]:
        if not 0 <= midplane < len(self._trace.machine.midplane_locations):
            return None
        jid = self._trace.job_at(midplane, now)
        if jid == IDLE:
            return None
        job = self._trace.job(jid)
        return RunningJob(
            job_id=job.job_id,
            start=job.start,
            midplanes=job.midplane_indices,
            width_nodes=self._nodes * len(job.midplane_indices),
        )

    def midplane_index(self, location: str) -> int:
        return self._mp_index.get(midplane_of(location), -1)

    def n_midplanes(self) -> int:
        return len(self._trace.machine.midplane_locations)

    def observe(self, time: float, location: str, job_id: int) -> None:
        return None  # the trace already knows everything

    def observe_midplane(self, time: float, midplane: int, job_id: int) -> None:
        return None


class _SeenJob:
    __slots__ = ("job_id", "first_seen", "last_seen", "midplanes", "running")

    def __init__(self, job_id: int, time: float) -> None:
        self.job_id = job_id
        self.first_seen = time
        self.last_seen = time
        self.midplanes: set[int] = set()
        #: The job as queries return it; rebuilt after it widens.
        self.running: Optional[RunningJob] = None


class StreamJobView:
    """Allocation inferred from the RAS stream's (time, location, job) triples.

    A job is first seen at its earliest event, widens to every midplane it
    reports from, and is presumed finished ``ttl_seconds`` after its last
    event.  Midplane strings get dense indices in first-seen stream order —
    deterministic for a fixed event order, chunked or not.

    Queries scan an index of live jobs, one per midplane for
    :meth:`occupant`; a scan drops the jobs it finds past their TTL.  That
    assumes queries move forward in time, as the engine's do: a query
    earlier than the latest one scans every record instead.  An expired
    job keeps its record, so a job id that recurs after its TTL keeps its
    ``first_seen`` and rejoins the index.
    """

    def __init__(
        self,
        *,
        ttl_seconds: float = DEFAULT_JOB_TTL_SECONDS,
        nodes_per_midplane: int = 512,
    ) -> None:
        self._ttl = ttl_seconds
        self._nodes = nodes_per_midplane
        self._mp_index: Dict[str, int] = {}
        self._loc_index: Dict[str, int] = {}  # memo: location -> midplane index
        self._jobs: Dict[int, _SeenJob] = {}
        #: Live jobs by midplane; key ``None`` holds every live job.
        self._live: Dict[Optional[int], Dict[int, _SeenJob]] = {None: {}}
        self._swept = float("-inf")  # the latest query time

    def observe(self, time: float, location: str, job_id: int) -> None:
        self.observe_midplane(time, self.midplane_index(location), job_id)

    def observe_midplane(self, time: float, midplane: int, job_id: int) -> None:
        if job_id < 0:
            return
        seen = self._jobs.get(job_id)
        if seen is None:
            seen = self._jobs[job_id] = self._live[None][job_id] = _SeenJob(job_id, time)
        elif time > seen.last_seen:
            if seen.last_seen + self._ttl < self._swept:  # a query may have dropped it
                for key in (None, *seen.midplanes):
                    self._live[key][job_id] = seen
            seen.last_seen = time
        if midplane >= 0 and midplane not in seen.midplanes:
            seen.midplanes.add(midplane)
            seen.running = None
            self._live.setdefault(midplane, {})[job_id] = seen

    def midplane_index(self, location: str) -> int:
        idx = self._loc_index.get(location)
        if idx is None:
            if not location:
                return -1
            idx = self._mp_index.setdefault(midplane_of(location), len(self._mp_index))
            self._loc_index[location] = idx
        return idx

    def n_midplanes(self) -> int:
        return max(len(self._mp_index), 1)

    def _as_running(self, seen: _SeenJob) -> RunningJob:
        if seen.running is None:
            seen.running = RunningJob(
                job_id=seen.job_id,
                start=int(seen.first_seen),
                midplanes=tuple(sorted(seen.midplanes)),
                width_nodes=self._nodes * max(len(seen.midplanes), 1),
            )
        return seen.running

    def _alive(self, now: float, midplane: Optional[int] = None) -> List[_SeenJob]:
        """Jobs running at ``now`` (only those on ``midplane``, if given)."""
        ttl = self._ttl
        if now < self._swept:
            return [s for s in self._jobs.values() if s.first_seen <= now <= s.last_seen + ttl
                    and (midplane is None or midplane in s.midplanes)]
        self._swept = now
        index = self._live.get(midplane, {})
        alive, expired = [], []
        for seen in index.values():
            if seen.last_seen + ttl < now:
                expired.append(seen.job_id)
            elif seen.first_seen <= now:
                alive.append(seen)
        for job_id in expired:
            del index[job_id]
        return alive

    def running(self, now: float) -> List[RunningJob]:
        alive = sorted(self._alive(now), key=lambda s: s.job_id)
        return [self._as_running(seen) for seen in alive]

    def occupant(self, midplane: int, now: float) -> Optional[RunningJob]:
        alive = self._alive(now, midplane)
        return self._as_running(min(alive, key=lambda s: s.job_id)) if alive else None

    def forget(self, job_id: int) -> None:
        """Drop a job the engine knows was killed (frees occupancy)."""
        seen = self._jobs.pop(job_id, None)
        if seen is not None:
            for key in (None, *seen.midplanes):
                self._live[key].pop(job_id, None)

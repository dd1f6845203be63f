"""Job workload model and the time x location -> job lookup.

RAS records carry the JOB_ID of the job that detected the event, and both
compression steps key on it.  The workload model here fills the machine with
jobs the way the production schedulers at ANL/SDSC did: partitions are whole
midplanes (the BG/L allocation unit), arrivals form a Poisson process, and
durations are log-normal (heavy-tailed, as observed on production systems).

:class:`JobTrace` answers the two queries the CMCS simulator needs:

- ``job_at(midplane_index, time)`` — which job (if any) occupied a midplane
  at a given instant;
- ``partition_nodecards(job)`` — the node cards a job spans, from which
  co-reporting chips are drawn.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bgl.topology import Machine
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive

#: Job id used for "no job running".
IDLE: int = -1


@dataclass(frozen=True)
class Job:
    """One scheduled job occupying a set of midplanes for [start, end)."""

    job_id: int
    start: int
    end: int
    midplane_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"job {self.job_id}: end must be > start")
        if not self.midplane_indices:
            raise ValueError(f"job {self.job_id}: empty partition")

    @property
    def duration(self) -> int:
        return self.end - self.start


class JobTrace:
    """Queryable schedule of jobs over the machine's midplanes."""

    def __init__(self, machine: Machine, jobs: Sequence[Job]) -> None:
        self.machine = machine
        self.jobs = sorted(jobs, key=lambda j: j.start)
        self._by_id = {j.job_id: j for j in self.jobs}
        if len(self._by_id) != len(self.jobs):
            raise ValueError("duplicate job ids in trace")
        n_mid = len(machine.midplane_locations)
        # Per-midplane sorted interval lists for binary-search lookup.
        self._starts: list[list[int]] = [[] for _ in range(n_mid)]
        self._ends: list[list[int]] = [[] for _ in range(n_mid)]
        self._ids: list[list[int]] = [[] for _ in range(n_mid)]
        for job in self.jobs:
            for m in job.midplane_indices:
                if not 0 <= m < n_mid:
                    raise ValueError(f"job {job.job_id}: bad midplane index {m}")
                if self._starts[m] and job.start < self._ends[m][-1]:
                    raise ValueError(
                        f"job {job.job_id} overlaps a previous job on midplane {m}"
                    )
                self._starts[m].append(job.start)
                self._ends[m].append(job.end)
                self._ids[m].append(job.job_id)

    def __len__(self) -> int:
        return len(self.jobs)

    def job(self, job_id: int) -> Job:
        """The job with the given id."""
        return self._by_id[job_id]

    def job_at(self, midplane_index: int, time: float) -> int:
        """Job id occupying a midplane at ``time``, or :data:`IDLE`."""
        starts = self._starts[midplane_index]
        i = bisect.bisect_right(starts, time) - 1
        if i >= 0 and time < self._ends[midplane_index][i]:
            return self._ids[midplane_index][i]
        return IDLE

    def any_job_at(self, time: float) -> int:
        """Id of some job running at ``time`` (lowest midplane), or IDLE."""
        for m in range(len(self._starts)):
            jid = self.job_at(m, time)
            if jid != IDLE:
                return jid
        return IDLE

    def partition_nodecards(self, job_id: int) -> list[str]:
        """Node-card locations spanned by a job's partition."""
        job = self._by_id[job_id]
        cards: list[str] = []
        for m in job.midplane_indices:
            mloc = self.machine.midplane_locations[m]
            cards.extend(self.machine.nodecards_of_midplane(mloc))
        return cards

    def partition_chips(self, job_id: int) -> list[str]:
        """Compute-chip locations spanned by a job's partition."""
        chips: list[str] = []
        for card in self.partition_nodecards(job_id):
            chips.extend(self.machine.chips_of_nodecard(card))
        return chips


class JobWorkloadModel:
    """Generates a :class:`JobTrace` filling the machine with jobs.

    Parameters
    ----------
    mean_interarrival:
        Mean seconds between job submissions (Poisson arrivals).
    mean_duration / sigma_duration:
        Log-normal duration parameters (mean of the underlying normal is
        derived from ``mean_duration``; ``sigma_duration`` is the log-space
        standard deviation, ~1.0 gives the heavy tail seen in production).
    p_full_machine:
        Probability a job requests every midplane rather than a single one.
    """

    def __init__(
        self,
        machine: Machine,
        mean_interarrival: float = 1800.0,
        mean_duration: float = 4 * 3600.0,
        sigma_duration: float = 1.0,
        p_full_machine: float = 0.3,
        min_duration: float = 120.0,
    ) -> None:
        self.machine = machine
        self.mean_interarrival = check_positive(mean_interarrival, "mean_interarrival")
        self.mean_duration = check_positive(mean_duration, "mean_duration")
        self.sigma_duration = check_positive(sigma_duration, "sigma_duration")
        if not 0.0 <= p_full_machine <= 1.0:
            raise ValueError("p_full_machine must be in [0, 1]")
        self.p_full_machine = p_full_machine
        self.min_duration = check_positive(min_duration, "min_duration")

    def generate(self, t0: int, t1: int, seed: SeedLike = None) -> JobTrace:
        """Simulate submissions in [t0, t1); jobs that don't fit are dropped.

        A dropped job models a submission that waited in the queue past the
        end of the simulated horizon — the trace only needs *running* jobs.
        """
        if t1 <= t0:
            raise ValueError("t1 must be > t0")
        rng = as_generator(seed)
        n_mid = len(self.machine.midplane_locations)
        free_at = np.full(n_mid, float(t0))  # next instant each midplane is free
        jobs: list[Job] = []
        # Log-normal with E[X] = mean_duration: mu = ln(mean) - sigma^2/2.
        mu = np.log(self.mean_duration) - self.sigma_duration**2 / 2.0
        t = float(t0)
        job_id = 1
        while True:
            t += rng.exponential(self.mean_interarrival)
            if t >= t1:
                break
            want_full = n_mid > 1 and rng.random() < self.p_full_machine
            duration = max(
                self.min_duration, float(rng.lognormal(mu, self.sigma_duration))
            )
            if want_full:
                start = max(t, float(free_at.max()))
                midplanes = tuple(range(n_mid))
            else:
                m = int(np.argmin(free_at))
                start = max(t, float(free_at[m]))
                midplanes = (m,)
            end = start + duration
            if end > t1:
                continue  # would run past the horizon; treat as still queued
            for m in midplanes:
                free_at[m] = end
            jobs.append(
                Job(
                    job_id=job_id,
                    start=int(start),
                    end=int(end),
                    midplane_indices=midplanes,
                )
            )
            job_id += 1
        return JobTrace(self.machine, jobs)

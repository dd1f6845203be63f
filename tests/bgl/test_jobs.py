"""Tests for repro.bgl.jobs."""

import pytest

from repro.bgl.jobs import IDLE, Job, JobTrace, JobWorkloadModel
from repro.bgl.topology import ANL_SPEC, Machine


@pytest.fixture
def machine():
    return Machine(ANL_SPEC)


def test_job_validation():
    with pytest.raises(ValueError):
        Job(job_id=1, start=10, end=10, midplane_indices=(0,))
    with pytest.raises(ValueError):
        Job(job_id=1, start=0, end=10, midplane_indices=())


def test_job_duration():
    assert Job(1, 0, 100, (0,)).duration == 100


def test_trace_lookup(machine):
    jobs = [
        Job(1, 0, 100, (0,)),
        Job(2, 50, 150, (1,)),
        Job(3, 200, 300, (0, 1)),
    ]
    trace = JobTrace(machine, jobs)
    assert trace.job_at(0, 50) == 1
    assert trace.job_at(1, 50) == 2
    assert trace.job_at(0, 150) == IDLE
    assert trace.job_at(0, 250) == 3
    assert trace.job_at(1, 250) == 3
    # end is exclusive
    assert trace.job_at(0, 100) == IDLE


def test_trace_any_job_at(machine):
    trace = JobTrace(machine, [Job(1, 10, 20, (1,))])
    assert trace.any_job_at(15) == 1
    assert trace.any_job_at(5) == IDLE


def test_trace_rejects_overlap(machine):
    with pytest.raises(ValueError, match="overlaps"):
        JobTrace(machine, [Job(1, 0, 100, (0,)), Job(2, 50, 150, (0,))])


def test_trace_rejects_duplicate_ids(machine):
    with pytest.raises(ValueError, match="duplicate"):
        JobTrace(machine, [Job(1, 0, 10, (0,)), Job(1, 20, 30, (1,))])


def test_trace_rejects_bad_midplane(machine):
    with pytest.raises(ValueError, match="midplane"):
        JobTrace(machine, [Job(1, 0, 10, (5,))])


def test_partition_chips(machine):
    trace = JobTrace(machine, [Job(1, 0, 100, (0,))])
    chips = trace.partition_chips(1)
    assert len(chips) == 512  # one midplane = 16 cards x 32 chips
    cards = trace.partition_nodecards(1)
    assert len(cards) == 16


def test_workload_model_generates_valid_trace(machine):
    model = JobWorkloadModel(machine, mean_interarrival=600, mean_duration=3600)
    trace = model.generate(0, 30 * 86400, seed=1)
    assert len(trace) > 10
    # Every job fits the horizon.
    for job in trace.jobs:
        assert 0 <= job.start < job.end <= 30 * 86400
    # A reasonable utilization (not idle, not impossible): the share of
    # midplane-seconds the jobs occupy.
    busy = sum(job.duration * len(job.midplane_indices) for job in trace.jobs)
    total = 30 * 86400 * len(machine.midplane_locations)
    assert 0.05 < busy / total <= 1.0


def test_workload_model_deterministic(machine):
    model = JobWorkloadModel(machine)
    a = model.generate(0, 10 * 86400, seed=5)
    b = model.generate(0, 10 * 86400, seed=5)
    assert [(j.start, j.end, j.midplane_indices) for j in a.jobs] == [
        (j.start, j.end, j.midplane_indices) for j in b.jobs
    ]


def test_workload_model_validation(machine):
    with pytest.raises(ValueError):
        JobWorkloadModel(machine, mean_interarrival=-1)
    with pytest.raises(ValueError):
        JobWorkloadModel(machine, p_full_machine=1.5)
    with pytest.raises(ValueError):
        JobWorkloadModel(machine).generate(100, 100)

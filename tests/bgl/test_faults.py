"""Tests for repro.bgl.faults (point-process primitives)."""

import numpy as np
import pytest

from repro.bgl.faults import (
    burst_process,
    chain_instances,
    poisson_times,
)
from repro.util.rng import as_generator


@pytest.fixture
def rng():
    return as_generator(42)


def test_poisson_times_sorted_in_range(rng):
    t = poisson_times(rng, rate=0.01, t0=100, t1=10_000)
    assert np.all(np.diff(t) >= 0)
    assert t.size == 0 or (t[0] >= 100 and t[-1] < 10_000)


def test_poisson_times_rate_controls_count(rng):
    span = 1_000_000
    t = poisson_times(rng, rate=0.001, t0=0, t1=span)
    assert t.size == pytest.approx(1000, rel=0.2)


def test_poisson_times_zero_rate(rng):
    assert poisson_times(rng, 0.0, 0, 1000).size == 0


def test_poisson_times_validation(rng):
    with pytest.raises(ValueError):
        poisson_times(rng, -1.0, 0, 10)
    with pytest.raises(ValueError):
        poisson_times(rng, 1.0, 10, 0)


def test_burst_process_structure(rng):
    times, gens = burst_process(
        rng, 0, 500_000, seed_rate=1e-4, p_follow=0.5,
        follow_lo=60, follow_hi=600,
    )
    assert np.all(np.diff(times) >= 0)
    assert times.shape == gens.shape
    assert (gens == 0).sum() > 0
    # Followers exist at roughly p_follow per event.
    followers = (gens > 0).sum()
    assert followers > 0


def test_burst_process_no_followers(rng):
    times, gens = burst_process(
        rng, 0, 100_000, seed_rate=1e-3, p_follow=0.0,
        follow_lo=10, follow_hi=100,
    )
    assert np.all(gens == 0)


def test_burst_process_generation_cap(rng):
    times, gens = burst_process(
        rng, 0, 1_000_000, seed_rate=1e-4, p_follow=0.99,
        follow_lo=1, follow_hi=2, max_generation=3,
    )
    assert gens.max() <= 3


def test_burst_process_validation(rng):
    with pytest.raises(ValueError):
        burst_process(rng, 0, 10, 1.0, 0.5, follow_lo=10, follow_hi=5)
    with pytest.raises(ValueError):
        burst_process(rng, 0, 10, 1.0, 1.5, follow_lo=1, follow_hi=2)


def test_chain_instances_confidence(rng):
    chains = chain_instances(
        rng, rate=1e-3, t0=0, t1=2_000_000, body_len=2,
        confidence=0.7, body_span=300, head_lag_lo=10, head_lag_hi=60,
    )
    assert len(chains) > 100
    with_head = sum(1 for c in chains if c.head_time is not None)
    assert with_head / len(chains) == pytest.approx(0.7, abs=0.08)
    for c in chains[:50]:
        assert len(c.body_times) == 2
        assert c.body_times == tuple(sorted(c.body_times))
        if c.head_time is not None:
            assert c.head_time > c.body_times[-1]


def test_chain_instances_validation(rng):
    with pytest.raises(ValueError):
        chain_instances(rng, 1.0, 0, 10, body_len=0, confidence=0.5,
                        body_span=10, head_lag_lo=1, head_lag_hi=2)
    with pytest.raises(ValueError):
        chain_instances(rng, 1.0, 0, 10, body_len=1, confidence=0.5,
                        body_span=10, head_lag_lo=5, head_lag_hi=5)

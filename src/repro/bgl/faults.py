"""Temporal point-process primitives for fault injection.

The synthetic log generator needs three kinds of ground-truth processes, each
matching a phenomenon the paper's predictors exploit:

- :func:`poisson_times` — memoryless background arrivals (isolated faults and
  informational noise).
- :func:`burst_process` — a self-exciting cluster process: each event spawns
  a follow-up within a bounded lag with some probability.  This produces the
  temporal correlation among fatal events that the *statistical* predictor
  learns (paper Figure 2: "a significant number of failures happen in close
  proximity", dominated by network and I/O-stream failures).
- :func:`chain_instances` — occurrences of a causal precursor chain: a body
  of non-fatal events followed (with the chain's confidence) by a fatal head.
  This is exactly the structure the *rule-based* predictor mines.

All functions are deterministic given a Generator and return NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.validation import check_fraction, check_positive


def poisson_times(
    rng: np.random.Generator, rate: float, t0: float, t1: float
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on [t0, t1).

    ``rate`` is events per second.  Implemented by drawing the count from a
    Poisson distribution and placing points uniformly — equivalent in law to
    summing exponential gaps, but fully vectorized.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if rate < 0:
        raise ValueError("rate must be >= 0")
    span = t1 - t0
    n = rng.poisson(rate * span)
    times = t0 + rng.random(n) * span
    times.sort()
    return times


def burst_process(
    rng: np.random.Generator,
    t0: float,
    t1: float,
    seed_rate: float,
    p_follow: float,
    follow_lo: float,
    follow_hi: float,
    max_generation: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Self-exciting cluster process (a bounded-lag Hawkes variant).

    Seeds arrive Poisson(``seed_rate``); every event (seed or follower)
    independently spawns one follow-up with probability ``p_follow`` at a lag
    uniform in [``follow_lo``, ``follow_hi``).  Generations are capped at
    ``max_generation`` so a draw of ``p_follow`` close to 1 cannot run away.

    Returns ``(times, generation)`` sorted by time; ``generation`` is 0 for
    seeds, k for k-th generation followers.  The conditional probability
    P(another event within [follow_lo, follow_hi) | event) ~= ``p_follow``,
    which is the statistic the statistical predictor estimates.
    """
    check_fraction(p_follow, "p_follow")
    if follow_hi <= follow_lo:
        raise ValueError("follow_hi must be > follow_lo")
    if follow_lo < 0:
        raise ValueError("follow_lo must be >= 0")
    seeds = poisson_times(rng, seed_rate, t0, t1)
    all_times = [seeds]
    all_gen = [np.zeros(seeds.size, dtype=np.int32)]
    current = seeds
    gen = 0
    while current.size and gen < max_generation:
        gen += 1
        spawned_mask = rng.random(current.size) < p_follow
        parents = current[spawned_mask]
        lags = follow_lo + rng.random(parents.size) * (follow_hi - follow_lo)
        children = parents + lags
        children = children[children < t1]
        if children.size == 0:
            break
        all_times.append(children)
        all_gen.append(np.full(children.size, gen, dtype=np.int32))
        current = children
    times = np.concatenate(all_times)
    gens = np.concatenate(all_gen)
    order = np.argsort(times, kind="stable")
    return times[order], gens[order]


@dataclass(frozen=True)
class ChainInstance:
    """One occurrence of a causal chain.

    ``body_times[i]`` is the time of the i-th body (precursor) event;
    ``head_time`` is the time of the fatal head, or ``None`` when this
    occurrence did not escalate to a failure (which happens with probability
    ``1 - confidence`` and is what bounds the mined rule's confidence and the
    predictor's precision).
    """

    body_times: tuple[float, ...]
    head_time: Optional[float]


def chain_instances(
    rng: np.random.Generator,
    rate: float,
    t0: float,
    t1: float,
    body_len: int,
    confidence: float,
    body_span: float,
    head_lag_lo: float,
    head_lag_hi: float,
) -> list[ChainInstance]:
    """Sample occurrences of a precursor chain on [t0, t1).

    Each occurrence anchors at a Poisson(``rate``) time; its ``body_len``
    precursor events are spread uniformly over the preceding ``body_span``
    seconds (sorted); with probability ``confidence`` a head (fatal) event
    follows the *last* body event at a lag uniform in
    [``head_lag_lo``, ``head_lag_hi``).
    """
    check_positive(body_len, "body_len")
    check_fraction(confidence, "confidence")
    check_positive(body_span, "body_span")
    if head_lag_hi <= head_lag_lo:
        raise ValueError("head_lag_hi must be > head_lag_lo")
    if head_lag_lo < 0:
        raise ValueError("head_lag_lo must be >= 0")
    anchors = poisson_times(rng, rate, t0, t1)
    out: list[ChainInstance] = []
    for a in anchors:
        offsets = np.sort(rng.random(body_len)) * body_span
        body = tuple(float(a + off) for off in offsets)
        last = body[-1]
        if rng.random() < confidence:
            head = last + head_lag_lo + rng.random() * (head_lag_hi - head_lag_lo)
            if head >= t1:
                head_time: Optional[float] = None
            else:
                head_time = float(head)
        else:
            head_time = None
        out.append(ChainInstance(body_times=body, head_time=head_time))
    return out

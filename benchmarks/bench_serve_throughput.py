"""Serving-engine throughput: batched feed and heap-based resolution.

Two measurements, both with a built-in correctness gate (the fast path must
be *bit-identical* to the reference before its speed means anything):

- **Batched columnar feed** (``MetaStream.detect`` over 256-event chunks)
  versus the per-event reference dispatch in ``tests/oracles.py`` over the
  same fitted meta-learner — same warning list required, events/sec and
  per-chunk feed-latency percentiles reported.
- **Heap-based warning resolution** (``WarningResolver``) versus the seed's
  deque implementation (rebuilt per event; ``tests/oracles.py`` keeps it)
  on a synthetic stream holding a ~10k pending-warning backlog — identical
  :class:`SessionStats` required, and the heap path must clear >= 5x the
  events/sec of the deque path (the PR's acceptance floor).

The resolution stream is synthetic on purpose: a real fitted model dedups
warnings against active horizons, so it cannot build a large backlog; the
resolver is detector-agnostic and the backlog regime is exactly where the
quadratic deque behaviour lived.
"""

from __future__ import annotations

from time import perf_counter

from benchmarks.conftest import report
from repro.core.pipeline import ThreePhasePredictor
from repro.obs import get_registry, summarize_histogram
from repro.online import WarningResolver
from repro.predictors.base import FailureWarning
from repro.serve import DetectorPool
from tests.oracles import LegacyDequeResolver, reference_detect

#: Synthetic resolution stream: one warning per event, ~10k-event horizons
#: (so the pending backlog plateaus near 10k), a failure every ~200 events.
BACKLOG_EVENTS = 30_000
BACKLOG_HORIZON = 10_000
BACKLOG_FAILURE_EVERY = 200


def _backlog_stream():
    """(time, is_fatal, raised) triples that sustain a ~10k-warning backlog."""
    stream = []
    for i in range(BACKLOG_EVENTS):
        t = 1_000_000 + i
        w = FailureWarning(
            issued_at=t,
            horizon_start=t + 1,
            horizon_end=t + BACKLOG_HORIZON,
            confidence=0.5,
            source="bench",
            detail=f"backlog-{i}",
        )
        is_fatal = (i % BACKLOG_FAILURE_EVERY) == BACKLOG_FAILURE_EVERY - 1
        stream.append((t, is_fatal, [w]))
    return stream


def test_resolution_heap_vs_deque_backlog():
    """10k-backlog resolution: heap must be >= 5x the deque baseline."""
    stream = _backlog_stream()

    legacy = LegacyDequeResolver()
    t0 = perf_counter()
    for now, is_fatal, raised in stream:
        legacy.process(now, is_fatal, raised)
    legacy_stats = legacy.finish()
    legacy_seconds = perf_counter() - t0

    resolver = WarningResolver()
    t0 = perf_counter()
    for now, is_fatal, raised in stream:
        resolver.advance(now)
        resolver.stats.events += 1
        if is_fatal:
            resolver.observe_failure(now)
        for w in raised:
            resolver.add(w)
    heap_stats = resolver.finalize()
    heap_seconds = perf_counter() - t0

    assert heap_stats == legacy_stats  # bit-identical counters, incl. leads
    legacy_eps = len(stream) / legacy_seconds
    heap_eps = len(stream) / heap_seconds
    speedup = heap_eps / legacy_eps
    report(
        "resolution @ ~10k pending backlog",
        [
            ("events", len(stream)),
            ("deque (seed) events/sec", f"{legacy_eps:,.0f}"),
            ("heap events/sec", f"{heap_eps:,.0f}"),
            ("speedup", f"{speedup:.1f}x (floor 5x)"),
            ("ops/event (heap)", f"{resolver.resolution_ops / len(stream):.1f}"),
        ],
    )
    get_registry().gauge("serve.resolution_speedup", speedup)
    assert speedup >= 5.0, (
        f"heap resolution only {speedup:.1f}x over the deque baseline"
    )


def test_batched_feed_vs_per_event(anl_bench_events):
    """Batch loop vs per-event oracle: identical warnings, events/sec, p50/p99."""
    events = anl_bench_events
    split = int(len(events) * 0.6)
    import numpy as np

    train = events.select(np.arange(split))
    test = events.select(np.arange(split, len(events)))
    meta = ThreePhasePredictor().fit(train).meta

    t0 = perf_counter()
    reference = reference_detect(meta.stream(), test)
    per_event_seconds = perf_counter() - t0

    stream = meta.stream()
    obs = get_registry()
    chunk = 256
    t0 = perf_counter()
    warnings = []
    for part in test.iter_chunks(chunk):
        c0 = perf_counter()
        warnings.extend(stream.detect(part))
        obs.observe("serve.feed_seconds", perf_counter() - c0)
    batched_seconds = perf_counter() - t0

    assert warnings == reference  # element-for-element identical
    s = summarize_histogram(obs.histograms["serve.feed_seconds"])
    rows = [
        ("events", len(test)),
        ("per-event reference events/sec", f"{len(test) / per_event_seconds:,.0f}"),
        ("batched events/sec", f"{len(test) / batched_seconds:,.0f}"),
        ("speedup", f"{per_event_seconds / batched_seconds:.1f}x"),
        (f"feed chunk ({chunk} ev) p50", f"{s['p50'] * 1e3:.3f} ms"),
        (f"feed chunk ({chunk} ev) p99", f"{s['p99'] * 1e3:.3f} ms"),
    ]
    report("batched columnar feed", rows)
    obs.gauge("serve.events_per_sec", len(test) / batched_seconds)


def test_pool_replay_throughput(anl_bench_events):
    """Sharded pool replay over the bench store (end-to-end serving path)."""
    events = anl_bench_events
    split = int(len(events) * 0.6)
    import numpy as np

    train = events.select(np.arange(split))
    test = events.select(np.arange(split, len(events)))
    meta = ThreePhasePredictor().fit(train).meta

    pool = DetectorPool(meta, shards=4, key="midplane")
    pool_report = pool.replay(test)
    report(
        "sharded pool replay (4 midplane shards)",
        [
            ("events", pool_report.events),
            ("active shards", len(pool_report.shards)),
            ("pool events/sec", f"{pool_report.events_per_sec:,.0f}"),
            ("warnings", pool_report.warnings_total),
            ("combined precision",
             f"{pool_report.combined.precision_so_far:.2f}"),
            ("combined recall", f"{pool_report.combined.recall_so_far:.2f}"),
        ],
    )

"""Tests for the live ingestion daemon (streams, backpressure, drain).

Each test drives a real :class:`IngestDaemon` over a loopback TCP socket
inside ``asyncio.run`` — no event-loop plugin needed.  The load-bearing
property is the drain oracle: a daemon fed over the wire and drained must
produce exactly the resolved statistics of a batch replay of the same
per-stream traffic, because the worker's chunked columnar feed is
chunk-size invariant.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.evaluation.spec import PredictorSpec
from repro.lifecycle import (
    DriftMonitor,
    LifecycleManager,
    ModelRegistry,
    Retrainer,
    RetrainPolicy,
)
from repro.meta.stacked import MetaLearner
from repro.online.resolution import SessionStats
from repro.ras.store import EventBatch
from repro.serve import DetectorPool
from repro.serve.client import emit_events, partition_round_robin
from repro.serve.daemon import (
    DaemonConfig,
    IngestDaemon,
    state_from_dict,
    state_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.serve.protocol import decode_frame, encode_frame, event_to_dict
from repro.serve.streams import StreamChannel
from repro.util.timeutil import MINUTE
from tests.oracles import reference_pool_stats

CONFIG = DaemonConfig(port=0, queue_bound=512, shards=2, chunk_events=64)


@pytest.fixture(scope="module")
def fitted(anl_events):
    cut = int(len(anl_events) * 0.7)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_events.select(slice(0, cut)))
    return meta, anl_events.select(slice(cut, len(anl_events)))


def oracle_stats(meta, events, *, shards=CONFIG.shards, key=CONFIG.key):
    """Reference accounting: per-event routing and dispatch, finalized."""
    return reference_pool_stats(meta, events, shards=shards, key=key)


async def send_frames(port, frames):
    """One connection; send each frame, collect each response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for frame in frames:
            writer.write(encode_frame(frame))
            await writer.drain()
            responses.append(decode_frame(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


async def send_raw(port, payload: bytes, lines: int = 1):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        return [await reader.readline() for _ in range(lines)]
    finally:
        writer.close()
        await writer.wait_closed()


def batch_frames(stream, events, batch=100):
    return [
        {
            "op": "batch",
            "stream": stream,
            "events": [event_to_dict(e) for e in events[i : i + batch]],
        }
        for i in range(0, len(events), batch)
    ]


# ------------------------------------------------------------- drain oracle


def test_drain_matches_batch_oracle_per_stream(fitted):
    """Wire-fed, chunk-batched, drained == per-event replay, per stream."""
    meta, test = fitted
    events = list(test)
    parts = partition_round_robin(events, ["alpha", "beta"])

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            for stream, evs in parts.items():
                responses = await send_frames(daemon.port, batch_frames(stream, evs))
                assert all(r["ok"] for r in responses)
            return await daemon.drain()

    report = asyncio.run(run())
    assert {r.stream_id for r in report.streams} == {"alpha", "beta"}
    for sr in report.streams:
        expected = oracle_stats(meta, parts[sr.stream_id])
        assert sr.stats == expected
        assert sr.processed == len(parts[sr.stream_id])
        assert sr.dropped_busy == 0 and sr.rejected_order == 0
    combined = SessionStats()
    for stream_events in parts.values():
        combined.merge(oracle_stats(meta, stream_events))
    # Merge order differs (stream ids vs dict order) only in lead_seconds.
    assert report.combined.warnings == combined.warnings
    assert report.combined.hits == combined.hits
    assert report.combined.false_alarms == combined.false_alarms
    assert sorted(report.combined.lead_seconds) == sorted(combined.lead_seconds)


def test_single_event_frames_equal_batch_frames(fitted):
    """Wire batching is invisible: per-event frames give the same drain."""
    meta, test = fitted
    events = list(test)[:120]

    async def run(frames):
        async with IngestDaemon(meta, CONFIG) as daemon:
            responses = await send_frames(daemon.port, frames)
            assert all(r["ok"] for r in responses)
            return await daemon.drain()

    one_by_one = [
        {"op": "event", "stream": "s", "event": event_to_dict(e)} for e in events
    ]
    r1 = asyncio.run(run(one_by_one))
    r2 = asyncio.run(run(batch_frames("s", events, batch=37)))
    assert r1.streams[0].stats == r2.streams[0].stats


def test_emit_client_round_trips_against_daemon(fitted):
    """The reference producer delivers everything and tallies correctly."""
    meta, test = fitted
    events = list(test)

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            report = await emit_events(
                events, port=daemon.port, streams=("s0", "s1", "s2"), batch=64
            )
            drain = await daemon.drain()
            return report, drain

    emit_report, drain_report = asyncio.run(run())
    assert emit_report.sent == len(events)
    assert not emit_report.errors
    assert {t.stream_id for t in emit_report.tallies} == {"s0", "s1", "s2"}
    assert all(t.final_stats is not None for t in emit_report.tallies)
    assert drain_report.events == len(events)
    parts = partition_round_robin(events, ["s0", "s1", "s2"])
    for sr in drain_report.streams:
        assert sr.stats == oracle_stats(meta, parts[sr.stream_id])


# ------------------------------------------------------------- backpressure


def test_stalled_channel_bounds_queue_and_reports_busy(fitted):
    """With its worker stalled, a channel never grows past queue_bound."""
    meta, test = fitted
    events = list(test)
    bound = 16

    async def run():
        channel = StreamChannel("s", meta, queue_bound=bound)
        # No channel.start(): the consumer is maximally stalled.
        head = EventBatch.from_events(events[: bound - 4])
        assert channel.offer(head) == ("ok", bound - 4)
        tail = EventBatch.from_events(events[bound - 4: bound + 10])
        assert channel.offer(tail) == ("busy", 4)
        assert channel.queue_depth == bound
        assert channel.stats.ingested == bound
        assert channel.stats.dropped_busy == 10
        # The consumer coming back drains everything that was accepted.
        channel.start()
        await channel.close()
        assert channel.stats.processed == bound

    asyncio.run(run())


def test_busy_batch_is_partially_accepted_over_the_wire(fitted):
    meta, test = fitted
    events = list(test)
    config = DaemonConfig(port=0, queue_bound=8, shards=2, chunk_events=64)

    async def run():
        async with IngestDaemon(meta, config) as daemon:
            channel = daemon.router.channel("s")
            channel._task.cancel()  # stall the consumer deterministically
            await asyncio.sleep(0)
            (response,) = await send_frames(
                daemon.port, batch_frames("s", events[:20], batch=20)
            )
            assert response["ok"] is False
            assert response["busy"] is True
            assert response["accepted"] == 8
            assert response["queue_depth"] == 8
            assert channel.queue_depth == 8
            # Resume a worker so drain() can flush the accepted events.
            channel._task = None
            channel.start()
            return await daemon.drain()

    report = asyncio.run(run())
    assert report.streams[0].processed == 8
    # Every refused event counts, not the one BUSY frame.
    assert report.streams[0].dropped_busy == 12


def test_out_of_order_event_rejected(fitted):
    meta, _ = fitted

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            ev = {"op": "event", "stream": "s"}
            first = {**ev, "event": {**_plain_event(), "time": 1000}}
            stale = {**ev, "event": {**_plain_event(), "time": 999}}
            ok, rejected, again = await send_frames(
                daemon.port, [first, stale, {**ev, "event": {**_plain_event(), "time": 1000}}]
            )
            assert ok["ok"]
            assert not rejected["ok"] and "precedes" in rejected["error"]
            assert again["ok"], "equal timestamps are allowed"
            await daemon.drain()
            assert daemon.router.channels["s"].stats.rejected_order == 1

    asyncio.run(run())


def _plain_event():
    return {
        "time": 1000,
        "location": "R00-M0-N00-C00",
        "facility": "KERNEL",
        "severity": "INFO",
        "entry_data": "timer interrupt rollover serviced",
    }


# ------------------------------------------------------------- protocol edge


def test_malformed_frame_gets_error_but_connection_survives(fitted):
    meta, _ = fitted

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                err = decode_frame(await reader.readline())
                assert err["ok"] is False and "JSON" in err["error"]
                writer.write(encode_frame({"op": "ping"}))
                await writer.drain()
                pong = decode_frame(await reader.readline())
                assert pong["ok"] is True and pong["version"] >= 1
            finally:
                writer.close()
                await writer.wait_closed()
            await daemon.drain()

    asyncio.run(run())


def test_unknown_stream_stats_and_warnings_error(fitted):
    meta, _ = fitted

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            responses = await send_frames(
                daemon.port,
                [{"op": "stats", "stream": "ghost"}, {"op": "warnings", "stream": "ghost"}],
            )
            assert all(not r["ok"] and "unknown stream" in r["error"] for r in responses)
            await daemon.drain()

    asyncio.run(run())


def test_draining_daemon_rejects_ingest(fitted):
    meta, _ = fitted

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            daemon.request_drain()
            (response,) = await send_frames(
                daemon.port, [{"op": "event", "stream": "s", "event": _plain_event()}]
            )
            assert response["ok"] is False
            assert response["draining"] is True
            await daemon.drain()

    asyncio.run(run())


def test_warnings_op_drains_the_ring(fitted):
    meta, test = fitted
    events = list(test)

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            await send_frames(daemon.port, batch_frames("s", events))
            await daemon.router.channels["s"].close()  # flush the worker
            first, second = await send_frames(
                daemon.port,
                [{"op": "warnings", "stream": "s"}, {"op": "warnings", "stream": "s"}],
            )
            await daemon.drain()
            return first, second, daemon.router.channels["s"].stats.warnings

    first, second, total = asyncio.run(run())
    assert first["ok"] and len(first["warnings"]) == min(total, CONFIG.warning_ring)
    assert total > 0, "test stream should raise at least one warning"
    assert second["warnings"] == []  # ring is drained on read
    for doc in first["warnings"]:
        assert {"issued_at", "horizon_start", "horizon_end", "confidence"} <= doc.keys()


# ------------------------------------------------------------- endpoints


def test_health_and_metrics_over_line_and_http(fitted):
    from repro.obs import MetricsRegistry, use

    meta, test = fitted
    events = list(test)[:100]

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            await send_frames(daemon.port, batch_frames("s", events))
            await daemon.router.channels["s"].close()
            (health,) = await send_frames(daemon.port, [{"op": "health"}])
            (metrics,) = await send_frames(daemon.port, [{"op": "metrics"}])
            http_health = await send_raw(
                daemon.port, b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n", lines=8
            )
            http_404 = await send_raw(
                daemon.port, b"GET /nope HTTP/1.1\r\n\r\n", lines=1
            )
            await daemon.drain()
            return health, metrics, http_health, http_404

    with use(MetricsRegistry()):
        health, metrics, http_health, http_404 = asyncio.run(run())
    assert health["status"] == "ok"
    assert health["streams"] == 1
    assert health["processed"] == len(events)
    doc = metrics["metrics"]
    assert doc["gauges"]["serve.daemon.streams"] == 1.0
    assert doc["counters"]["serve.daemon.events{stream=s}"] == len(events)
    assert "serve.daemon.ingest_events_per_sec" in doc["gauges"]
    assert "serve.daemon.queue_depth{stream=s}" in doc["gauges"]
    assert http_health[0].startswith(b"HTTP/1.0 200")
    assert http_404[0].startswith(b"HTTP/1.0 404")


def test_http_drain_endpoint_flips_health_to_503(fitted):
    meta, _ = fitted

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            lines = await send_raw(
                daemon.port, b"GET /drain HTTP/1.0\r\n\r\n", lines=8
            )
            assert lines[0].startswith(b"HTTP/1.0 200")
            assert daemon.draining
            await daemon.drain()

    asyncio.run(run())


# ------------------------------------------------------------- kill/restart


def test_kill_restart_cycle_loses_no_resolved_warnings(fitted):
    """Drain -> state file -> restart with baseline conserves every counter."""
    meta, test = fitted
    events = list(test)
    half = len(events) // 2
    first, second = events[:half], events[half:]

    async def run(evs, baseline):
        daemon = IngestDaemon(meta, CONFIG, baseline=baseline)
        async with daemon:
            responses = await send_frames(daemon.port, batch_frames("s", evs))
            assert all(r["ok"] for r in responses)
            return await daemon.drain()

    report1 = asyncio.run(run(first, None))
    # Kill: all that survives is the serialized state document.
    state_doc = state_to_dict(report1)
    restored = state_from_dict(state_doc)
    report2 = asyncio.run(run(second, restored))

    expected = oracle_stats(meta, first)
    expected.merge(oracle_stats(meta, second))
    total = report2.total()
    assert total == expected
    # Explicitly: nothing resolved in the first life was lost.
    o1 = oracle_stats(meta, first)
    assert total.warnings == o1.warnings + report2.combined.warnings
    assert total.hits >= report1.combined.hits
    assert total.events == len(events)


def test_stats_round_trip_preserves_every_field():
    stats = SessionStats(
        events=10,
        failures=3,
        warnings=4,
        hits=2,
        false_alarms=1,
        caught_failures=2,
        missed_failures=1,
        lead_seconds=[12.5, 90.0],
    )
    assert stats_from_dict(stats_to_dict(stats)) == stats


# ------------------------------------------------------------- lifecycle hook


class _RecordingManager:
    """ChunkConsumer test double: records barrier sizes, serves via pool."""

    def __init__(self, pool, reference):
        self.pool = pool
        self.reference = reference
        self.chunk_sizes = []

    def feed(self, chunk):
        self.chunk_sizes.append(len(chunk))
        return self.pool.process_store(chunk)


def test_manager_factory_gets_reference_then_fixed_chunks(fitted):
    """Lifecycle mode: reference window first, then deterministic barriers."""
    meta, test = fitted
    events = list(test)
    managers = []

    def factory(pool, reference):
        manager = _RecordingManager(pool, reference)
        managers.append(manager)
        return manager

    config = DaemonConfig(port=0, queue_bound=512, shards=2, chunk_events=32)
    reference_events = 48

    async def run():
        daemon = IngestDaemon(
            meta, config, manager_factory=factory, reference_events=reference_events
        )
        async with daemon:
            # Deliberately ragged wire batches: barrier positions must not care.
            await send_frames(daemon.port, batch_frames("s", events, batch=29))
            return await daemon.drain()

    report = asyncio.run(run())
    assert len(managers) == 1
    manager = managers[0]
    assert len(manager.reference) == reference_events
    served = len(events)
    # First fed chunk is the reference itself, then fixed 32-event barriers,
    # then the drain-time remainder — regardless of the ragged wire batches.
    full, rem = divmod(served - reference_events, 32)
    expected_sizes = [reference_events] + [32] * full + ([rem] if rem else [])
    assert manager.chunk_sizes == expected_sizes
    assert report.streams[0].stats == oracle_stats(meta, events)
    assert report.streams[0].processed == served


def test_drain_tags_the_serving_snapshot_of_a_lifecycle_stream(fitted, tmp_path):
    """Drain names the model serving each lifecycle stream ``serving-<id>``.

    The daemon reaches the registry through the manager's retrainer
    (duck-typed: serve never imports lifecycle), so a restart can resume
    from the tag.
    """
    meta, test = fitted
    events = list(test)
    root = tmp_path / "reg"
    registry = ModelRegistry(root)
    spec = PredictorSpec.of("meta")
    base = registry.save(meta, spec=spec)
    managers = []

    def factory(pool, reference):
        manager = LifecycleManager(
            pool,
            DriftMonitor(reference, window=64),
            RetrainPolicy(every_events=96, cooldown_events=64),
            Retrainer(spec, registry, window_events=500, seed=3),
            serving_snapshot=base.snapshot_id,
        )
        managers.append(manager)
        return manager

    config = DaemonConfig(port=0, queue_bound=512, shards=2, chunk_events=32)

    async def run():
        daemon = IngestDaemon(
            meta, config, manager_factory=factory, reference_events=64
        )
        async with daemon:
            await send_frames(daemon.port, batch_frames("s", events))
            return await daemon.drain()

    asyncio.run(run())
    (manager,) = managers
    assert manager.serving_snapshot != base.snapshot_id  # a retrain swapped
    assert ModelRegistry(root).tags()["serving-s"] == manager.serving_snapshot


def test_store_dir_archives_accepted_events(fitted, tmp_path):
    """Every accepted event lands in the columnar archive, across restarts."""
    from repro.ras.columnar import is_columnar_dir, open_store

    meta, test = fitted
    events = list(test)
    half = len(events) // 2
    store_dir = tmp_path / "archive"
    config = DaemonConfig(
        port=0, queue_bound=512, shards=2, chunk_events=64,
        store_dir=str(store_dir),
    )

    async def run(evs, expected_total):
        async with IngestDaemon(meta, config) as daemon:
            responses = await send_frames(
                daemon.port, batch_frames("alpha", evs)
            )
            assert all(r["ok"] for r in responses)
            assert daemon.store_rows == expected_total
            return await daemon.drain()

    asyncio.run(run(events[:half], half))
    assert is_columnar_dir(store_dir)
    assert len(open_store(store_dir)) == half

    # A restarted daemon resumes the same archive append-only.
    shifted = [ev.with_time(ev.time + 10 * MINUTE) for ev in events[half:]]
    asyncio.run(run(shifted, len(events)))
    archive = open_store(store_dir)
    assert len(archive) == len(events)
    # The archive replays: times are intact and sorted on open.
    assert int(archive.times[0]) == min(ev.time for ev in events[:half])


def test_store_dir_rejected_events_not_archived(fitted, tmp_path):
    """Order-rejected events never reach the archive."""
    from repro.ras.columnar import open_store

    meta, test = fitted
    events = list(test)[:10]
    store_dir = tmp_path / "archive"
    config = DaemonConfig(
        port=0, queue_bound=512, shards=2, chunk_events=64,
        store_dir=str(store_dir),
    )
    stale = events[0].with_time(events[-1].time - 10 * MINUTE)

    async def run():
        async with IngestDaemon(meta, config) as daemon:
            frames = batch_frames("alpha", events) + [
                {
                    "op": "event",
                    "stream": "alpha",
                    "event": event_to_dict(stale),
                }
            ]
            responses = await send_frames(daemon.port, frames)
            assert not responses[-1]["ok"]
            return await daemon.drain()

    report = asyncio.run(run())
    assert report.streams[0].rejected_order == 1
    assert len(open_store(store_dir)) == len(events)


# ------------------------------------------------------------- action ledgers


def test_per_stream_ledger_matches_one_shot_replay(fitted):
    """A daemon-drained ledger is bit-identical to a one-shot replay of the
    same stream: the engine's chunk invariance, exercised over the wire."""
    from repro.actions import ActionEngine, CostModel, Ledger, build_policy
    from repro.ras.store import EventStore

    meta, test = fitted
    events = list(test)[:240]

    def factory(stream_id):
        return ActionEngine(
            build_policy("cost-aware"), CostModel(), seed=5,
            labels={"stream": stream_id},
        )

    async def run():
        async with IngestDaemon(meta, CONFIG, action_factory=factory) as daemon:
            responses = await send_frames(
                daemon.port, batch_frames("s", events, batch=50)
            )
            assert all(r["ok"] for r in responses)
            return await daemon.drain()

    report = asyncio.run(run())
    sr = report.streams[0]
    assert sr.ledger is not None

    store = EventStore.from_events(events)
    pool = DetectorPool(meta, shards=CONFIG.shards, key=CONFIG.key)
    warnings = pool.process_store(store)
    oracle = ActionEngine(build_policy("cost-aware"), CostModel(), seed=5)
    oracle.observe_store(store, list(warnings))
    assert oracle.finalize().digest() == sr.ledger.digest()

    # The state document carries the ledger counters (entries elided).
    doc = state_to_dict(report)
    assert set(doc["ledgers"]) == {"s"}
    restored = Ledger.from_dict(doc["ledgers"]["s"])
    assert restored.policy == "cost-aware"
    assert restored.net_node_seconds == sr.ledger.net_node_seconds
    assert doc["ledgers"]["s"]["settled"] == sr.ledger.settled
    assert restored.entries == []      # restart state elides entries


def test_drain_without_action_factory_has_no_ledger(fitted):
    meta, test = fitted

    async def run():
        async with IngestDaemon(meta, CONFIG) as daemon:
            responses = await send_frames(
                daemon.port, batch_frames("s", list(test)[:60])
            )
            assert all(r["ok"] for r in responses)
            return await daemon.drain()

    report = asyncio.run(run())
    assert report.streams[0].ledger is None
    assert "ledgers" not in state_to_dict(report)

"""The live ingestion daemon: an always-on front end for the detector pool.

:class:`IngestDaemon` runs one asyncio TCP server speaking the NDJSON line
protocol of :mod:`repro.serve.protocol`.  Each connection writes request
frames; ``event``/``batch`` frames are routed by stream id to a
:class:`~repro.serve.streams.StreamChannel` (bounded queue + worker + its
own :class:`~repro.serve.pool.DetectorPool`), everything else is answered
inline.  The same port answers ``GET /metrics``, ``GET /health`` and
``GET /drain`` over plain HTTP, so scrape jobs need no custom client.

Backpressure is end to end: a stream whose worker falls behind fills its
bounded queue, ``offer`` returns busy, and the producer receives a
``BUSY`` response naming how many events of its batch were accepted —
memory stays bounded no matter how fast producers push.

Shutdown is a *drain*, not a stop: on SIGTERM (or a ``drain`` frame, or
``GET /drain``) the daemon refuses new events, lets every worker empty its
queue, finalizes every pool session so all pending warnings resolve, and
returns a :class:`DrainReport` whose combined statistics are — by the
chunk-invariance of the columnar feed path — identical to a batch replay
of the same per-stream traffic.  :func:`state_to_dict` /
:func:`state_from_dict` round-trip the resolved counters so a kill/restart
cycle carries them forward losslessly (the CLI persists them; no file I/O
happens inside the event loop).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

from repro.obs import get_registry
from repro.online.resolution import SessionStats
from repro.ras.store import EventBatch
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    busy_response,
    decode_request,
    encode_frame,
    error_response,
    http_request_path,
    http_response,
    is_http_request,
    ok_response,
    warning_to_dict,
)
from repro.serve.streams import (
    ActionFactory,
    ManagerFactory,
    StreamRouter,
)
from repro.util.validation import check_positive


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables of one daemon instance (see docs/operations.md for a table)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 -> OS-assigned; read the bound port off `daemon.port`
    queue_bound: int = 4096
    shards: int = 4
    key: str = "midplane"
    chunk_events: int = 512
    max_streams: int = 64
    warning_ring: int = 256
    max_line_bytes: int = MAX_LINE_BYTES
    #: Columnar store directory for ingestion persistence (None = off).
    #: Accepted events append durably in arrival order; a restarted daemon
    #: resumes the same store, and the archive replays later with
    #: ``repro.ras.columnar.open_store`` (which re-sorts wire order).
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive(self.queue_bound, "queue_bound")
        check_positive(self.chunk_events, "chunk_events")
        check_positive(self.max_streams, "max_streams")
        check_positive(self.max_line_bytes, "max_line_bytes")


@dataclass(frozen=True)
class StreamReport:
    """One stream's contribution to a drain."""

    stream_id: str
    ingested: int
    processed: int
    dropped_busy: int
    rejected_order: int
    warnings: int
    stats: SessionStats
    #: The stream's action ledger (a ``repro.actions.Ledger``, duck-typed:
    #: serve only carries it into reports and the state doc), or ``None``
    #: when the daemon runs without an action policy.
    ledger: Optional[Any] = None


@dataclass(frozen=True)
class DrainReport:
    """The daemon's final accounting after a graceful drain."""

    streams: list[StreamReport]
    seconds: float
    baseline: Optional[SessionStats] = None
    combined: SessionStats = field(init=False)

    def __post_init__(self) -> None:
        combined = SessionStats()
        for report in self.streams:
            combined.merge(report.stats)
        object.__setattr__(self, "combined", combined)

    @property
    def events(self) -> int:
        return sum(r.processed for r in self.streams)

    def total(self) -> SessionStats:
        """Combined stats including the restored pre-restart baseline."""
        total = SessionStats()
        if self.baseline is not None:
            total.merge(self.baseline)
        total.merge(self.combined)
        return total


# --------------------------------------------------------------------- #
# Resolved-state round-trip (consumed by the CLI's --state file)
# --------------------------------------------------------------------- #


def stats_to_dict(stats: SessionStats) -> dict[str, Any]:
    return {
        "events": stats.events,
        "failures": stats.failures,
        "warnings": stats.warnings,
        "hits": stats.hits,
        "false_alarms": stats.false_alarms,
        "caught_failures": stats.caught_failures,
        "missed_failures": stats.missed_failures,
        "lead_seconds": list(stats.lead_seconds),
    }


def stats_from_dict(doc: dict[str, Any]) -> SessionStats:
    return SessionStats(
        events=int(doc.get("events", 0)),
        failures=int(doc.get("failures", 0)),
        warnings=int(doc.get("warnings", 0)),
        hits=int(doc.get("hits", 0)),
        false_alarms=int(doc.get("false_alarms", 0)),
        caught_failures=int(doc.get("caught_failures", 0)),
        missed_failures=int(doc.get("missed_failures", 0)),
        lead_seconds=[float(x) for x in doc.get("lead_seconds", [])],
    )


def state_to_dict(
    report: DrainReport,
    carried_ledgers: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """JSON-ready restart state: per-stream and total resolved counters.

    When streams carry action ledgers, their aggregate counters persist
    under ``"ledgers"`` (entries elided — a restarted engine resumes the
    running totals, not the per-action history).  ``carried_ledgers`` are
    ledger documents restored from the previous life; a stream that sent
    no traffic this life keeps its restored aggregates rather than losing
    them at the rewrite.
    """
    doc: dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        "total": stats_to_dict(report.total()),
        "streams": {
            r.stream_id: stats_to_dict(r.stats) for r in report.streams
        },
    }
    ledgers = dict(carried_ledgers or {})
    ledgers.update(
        (r.stream_id, r.ledger.to_dict(include_entries=False))
        for r in report.streams
        if r.ledger is not None
    )
    if ledgers:
        doc["ledgers"] = ledgers
    return doc


def state_from_dict(doc: dict[str, Any]) -> SessionStats:
    """The total resolved counters a restarted daemon carries forward."""
    return stats_from_dict(doc.get("total", {}))


class IngestDaemon:
    """One live ingestion endpoint in front of per-stream detector pools.

    Construction is cheap and sync; :meth:`start` binds the socket on the
    running loop.  Drive it either with :meth:`serve_until_drained`
    (install signal handlers, block until drained) or by calling
    :meth:`start` / :meth:`request_drain` / :meth:`drain` yourself (tests).
    """

    def __init__(
        self,
        meta: Any,
        config: DaemonConfig = DaemonConfig(),
        *,
        manager_factory: Optional[ManagerFactory] = None,
        reference_events: int = 0,
        action_factory: Optional[ActionFactory] = None,
        baseline: Optional[SessionStats] = None,
        registry: Any = None,
    ) -> None:
        self.config = config
        self.router = StreamRouter(
            meta=meta,
            queue_bound=config.queue_bound,
            shards=config.shards,
            key=config.key,
            chunk_events=config.chunk_events,
            warning_ring=config.warning_ring,
            max_streams=config.max_streams,
            manager_factory=manager_factory,
            reference_events=reference_events,
            action_factory=action_factory,
        )
        self.baseline = baseline
        self.obs = registry if registry is not None else get_registry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = asyncio.Event()
        self._started_at = 0.0
        self.drain_report: Optional[DrainReport] = None
        # Columnar ingestion archive: accepted raw batches buffer in
        # arrival order and flush every `chunk_events` events (each flush is
        # one durable append + manifest commit, amortizing the fsync).
        self._store_writer = None
        self._store_buffer: list[EventBatch] = []
        self._store_buffered = 0
        if config.store_dir:
            from repro.ras.columnar import ColumnarWriter

            self._store_writer = ColumnarWriter(config.store_dir, resume=True)

    # ---------------------------------------------------------------- #
    # Lifecycle
    # ---------------------------------------------------------------- #

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._started_at = perf_counter()
        self._server = await asyncio.start_server(
            self._on_client,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes,
        )

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the OS's choice)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("daemon is not started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def request_drain(self) -> None:
        """Flip the daemon into draining mode (signal-handler safe)."""
        self._draining.set()

    async def serve_until_drained(
        self, *, install_signal_handlers: bool = True
    ) -> DrainReport:
        """Start, run until a drain is requested, drain, and report."""
        await self.start()
        if install_signal_handlers:
            self._install_signal_handlers()
        await self._draining.wait()
        return await self.drain()

    def _install_signal_handlers(self) -> None:
        import signal

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (CLI tests) or an unsupported
                # platform; callers fall back to the drain op / endpoint.
                break

    async def drain(self) -> DrainReport:
        """Graceful shutdown: stop accepting, flush, finalize, report."""
        if self.drain_report is not None:
            return self.drain_report
        self._draining.set()
        t0 = perf_counter()
        if self._server is not None:
            # close() only; wait_closed() on 3.12 waits for in-flight
            # connection handlers, which may themselves be awaiting us.
            self._server.close()
        await self.router.close_all()
        loop = asyncio.get_running_loop()
        reports = []
        for stream_id in sorted(self.router.channels):
            channel = self.router.channels[stream_id]
            stats = channel.finish()
            manager = channel.manager
            if manager is not None:
                # Tag the registry ref of the model serving at shutdown so
                # a restart can resume from it.  tag() writes files —
                # off-loop, the event loop stays non-blocking.
                registry = getattr(
                    getattr(manager, "retrainer", None), "registry", None
                )
                serving = getattr(manager, "serving_snapshot", None)
                if registry is not None and serving is not None:
                    await loop.run_in_executor(
                        None, registry.tag, serving, f"serving-{stream_id}"
                    )
            sink = channel.action_sink
            ledger = sink.finalize() if sink is not None else None
            s = channel.stats
            reports.append(
                StreamReport(
                    stream_id=stream_id,
                    ingested=s.ingested,
                    processed=s.processed,
                    dropped_busy=s.dropped_busy,
                    rejected_order=s.rejected_order,
                    warnings=s.warnings,
                    stats=stats,
                    ledger=ledger,
                )
            )
        if self._store_writer is not None:
            # Final flush + close off-loop: the manifest commit fsyncs.
            await loop.run_in_executor(None, self._close_store)
        seconds = perf_counter() - t0
        self.obs.observe("serve.daemon.drain_seconds", seconds)
        self.drain_report = DrainReport(
            streams=reports, seconds=seconds, baseline=self.baseline
        )
        return self.drain_report

    # ---------------------------------------------------------------- #
    # Ingestion archive (columnar persistence)
    # ---------------------------------------------------------------- #

    @property
    def store_rows(self) -> int:
        """Rows committed + buffered in the ingestion archive (0 when off)."""
        if self._store_writer is None:
            return 0
        return self._store_writer.rows + self._store_buffered

    def _archive(self, batch: EventBatch) -> None:
        if self._store_writer is None:
            return
        self._store_buffer.append(batch)
        self._store_buffered += len(batch)
        if self._store_buffered >= self.config.chunk_events:
            self._flush_store()

    def _flush_store(self) -> None:
        if self._store_writer is None or not self._store_buffer:
            return
        self._store_writer.append_batch(EventBatch.concat(self._store_buffer))
        self.obs.counter("serve.daemon.store_rows", self._store_buffered)
        self._store_buffer.clear()
        self._store_buffered = 0

    def _close_store(self) -> None:
        self._flush_store()
        if self._store_writer is not None:
            self._store_writer.close()

    # ---------------------------------------------------------------- #
    # Connection handling
    # ---------------------------------------------------------------- #

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.obs.counter("serve.daemon.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Over-long line (StreamReader limit) or a dropped peer.
                    self.obs.counter("serve.daemon.rejected", reason="protocol")
                    break
                if not line:
                    break
                if is_http_request(line):
                    await self._serve_http(line, reader, writer)
                    break  # HTTP is one-shot: respond and close
                response = self._handle_line(line)
                writer.write(encode_frame(response))
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def _handle_line(self, line: bytes) -> dict[str, Any]:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self.obs.counter("serve.daemon.rejected", reason="protocol")
            return error_response(str(exc))
        self.obs.counter("serve.daemon.frames", op=request.op)
        try:
            return self._respond(request)
        except ValueError as exc:  # e.g. stream limit reached
            self.obs.counter("serve.daemon.rejected", reason="protocol")
            return error_response(str(exc))

    def _respond(self, request: Request) -> dict[str, Any]:
        op = request.op
        if op == "ping":
            return ok_response(version=PROTOCOL_VERSION)
        if op == "health":
            return ok_response(**self.health_doc())
        if op == "metrics":
            return ok_response(metrics=self.metrics_doc())
        if op == "drain":
            self.request_drain()
            return ok_response(draining=True)
        if op in ("event", "batch"):
            return self._ingest(request)
        if op == "stats":
            channel = self.router.channels.get(request.stream)
            if channel is None:
                return error_response(f"unknown stream {request.stream!r}")
            session = channel.pool.combined_stats()
            return ok_response(
                stream=request.stream,
                counters=channel.stats.to_dict(),
                pending_warnings=channel.pending_warnings,
                session=stats_to_dict(session),
            )
        if op == "warnings":
            channel = self.router.channels.get(request.stream)
            if channel is None:
                return error_response(f"unknown stream {request.stream!r}")
            drained = [warning_to_dict(w) for w in channel.recent_warnings]
            channel.recent_warnings.clear()
            return ok_response(stream=request.stream, warnings=drained)
        raise AssertionError(f"unreachable op {op!r}")

    def _ingest(self, request: Request) -> dict[str, Any]:
        if self.draining:
            self.obs.counter("serve.daemon.rejected", reason="draining")
            return error_response("draining", draining=True)
        channel = self.router.channel(request.stream)
        batch = request.batch
        verdict, accepted = channel.offer(batch)
        if accepted:
            self._archive(batch if accepted == len(batch) else batch[:accepted])
        if verdict == "order":
            self.obs.counter("serve.daemon.rejected", reason="order")
            return error_response(
                f"event time {batch.times[accepted]} precedes stream high-water "
                f"mark {channel.stats.last_time}",
                accepted=accepted,
            )
        if verdict == "busy":
            self.obs.counter("serve.daemon.rejected", reason="busy")
            self.obs.counter(
                "serve.daemon.drops", len(batch) - accepted, stream=request.stream
            )
            return busy_response(accepted, channel.queue_depth)
        return ok_response(accepted=accepted, queue_depth=channel.queue_depth)

    # ---------------------------------------------------------------- #
    # Scrape documents
    # ---------------------------------------------------------------- #

    def health_doc(self) -> dict[str, Any]:
        channels = self.router.channels
        return {
            "status": "draining" if self.draining else "ok",
            "version": PROTOCOL_VERSION,
            "streams": len(channels),
            "ingested": sum(c.stats.ingested for c in channels.values()),
            "processed": sum(c.stats.processed for c in channels.values()),
            "pending_warnings": sum(
                c.pending_warnings for c in channels.values()
            ),
            "queued": sum(c.lag for c in channels.values()),
            "uptime_seconds": round(perf_counter() - self._started_at, 3),
        }

    def metrics_doc(self) -> dict[str, Any]:
        """Refresh the daemon gauges, then snapshot the whole registry."""
        obs = self.obs
        channels = self.router.channels
        uptime = max(perf_counter() - self._started_at, 1e-9)
        processed = 0
        for stream_id in sorted(channels):
            channel = channels[stream_id]
            processed += channel.stats.processed
            obs.gauge(
                "serve.daemon.queue_depth",
                float(channel.queue_depth),
                stream=stream_id,
            )
            obs.gauge("serve.daemon.lag", float(channel.lag), stream=stream_id)
            obs.gauge(
                "serve.daemon.pending_warnings",
                float(channel.pending_warnings),
                stream=stream_id,
            )
        obs.gauge("serve.daemon.streams", float(len(channels)))
        obs.gauge("serve.daemon.ingest_events_per_sec", processed / uptime)
        if self._store_writer is not None:
            obs.gauge("serve.daemon.store_rows_total", float(self.store_rows))
        to_dict = getattr(obs, "to_dict", None)
        return to_dict() if callable(to_dict) else {}

    # ---------------------------------------------------------------- #
    # HTTP bridging
    # ---------------------------------------------------------------- #

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # Consume (bounded) headers so well-behaved clients see a clean
        # response; StreamReader's limit caps each header line.
        for _ in range(64):
            try:
                header = await reader.readline()
            except (ValueError, ConnectionError):
                return
            if header in (b"\r\n", b"\n", b""):
                break
        try:
            path = http_request_path(request_line)
        except ProtocolError:
            writer.write(http_response(404, '{"error":"bad request"}\n'))
            await writer.drain()
            return
        import json

        if path == "/metrics":
            body = json.dumps(self.metrics_doc(), sort_keys=True) + "\n"
            writer.write(http_response(200, body))
        elif path == "/health":
            doc = self.health_doc()
            status = 503 if self.draining else 200
            writer.write(
                http_response(status, json.dumps(doc, sort_keys=True) + "\n")
            )
        elif path == "/drain":
            self.request_drain()
            writer.write(http_response(200, '{"draining":true}\n'))
        else:
            writer.write(http_response(404, '{"error":"not found"}\n'))
        await writer.drain()

    # Convenience for tests: drive a daemon completely inside asyncio.run().

    async def __aenter__(self) -> "IngestDaemon":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        if self.drain_report is None:
            await self.drain()

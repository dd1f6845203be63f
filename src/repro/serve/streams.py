"""Per-stream ingestion channels behind the daemon's wire protocol.

A *stream* is one independent RAS event source (one machine, one tenant,
one replayed log).  Each stream gets a :class:`StreamChannel`: a queue of
decoded wire batches, bounded in events, in front of its own
:class:`~repro.serve.pool.DetectorPool`, consumed by one worker task.  The
bound is the backpressure contract — when a stream's consumer falls behind,
:meth:`StreamChannel.offer` accepts only the prefix that fits, and the
daemon answers ``BUSY`` (the producer retries the unsent tail).

The worker concatenates batches into chunks of at most ``chunk_events``,
builds one store per chunk (labeling each distinct ENTRY_DATA once) and
feeds it through :meth:`DetectorPool.process_store` — the persistent-
session columnar path, which is chunk-size invariant, so the resolved
session statistics equal a per-event replay of the same stream regardless
of how arrivals were batched on the wire.

Lifecycle integration is duck-typed: a channel built with a
``manager_factory`` buffers its first ``reference_events`` events into the
drift-reference store, builds the manager (anything with ``feed(chunk)``,
in practice :class:`repro.lifecycle.manager.LifecycleManager`), and from
then on feeds *fixed-size* chunks so retrain/swap barriers land at
deterministic stream positions.  :mod:`repro.serve` never imports
:mod:`repro.lifecycle` — the factory is injected by the CLI — keeping the
package DAG acyclic (lifecycle already imports ``serve.pool``).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Protocol

from repro.meta.stacked import MetaLearner
from repro.obs import get_registry
from repro.online.resolution import SessionStats
from repro.predictors.base import FailureWarning
from repro.ras.store import EventBatch, EventStore
from repro.serve.pool import DetectorPool
from repro.util.validation import check_positive


class ChunkConsumer(Protocol):
    """What a lifecycle manager looks like from the daemon's side."""

    pool: DetectorPool

    def feed(self, chunk: EventStore) -> list[FailureWarning]: ...


class ActionSink(Protocol):
    """What an action engine looks like from the daemon's side.

    Like lifecycle, the actions layer sits above serve in the package DAG,
    so serve only ever sees this protocol; the concrete
    ``repro.actions.ActionEngine`` is injected by the CLI.  ``finalize``
    returns the engine's ledger — typed ``object`` here because serve
    never inspects it, only carries it into reports and state docs.
    """

    def observe_store(
        self, store: EventStore, warnings: list[FailureWarning]
    ) -> None: ...

    def finalize(self) -> object: ...


#: Builds a lifecycle manager once the drift-reference store is assembled.
ManagerFactory = Callable[[DetectorPool, EventStore], ChunkConsumer]

#: Builds one action sink per stream (keyed by stream id).
ActionFactory = Callable[[str], ActionSink]

@dataclass
class StreamStats:
    """Operator-facing counters of one ingestion stream."""

    ingested: int = 0        # accepted into the queue
    processed: int = 0       # fed through the detector pool
    dropped_busy: int = 0    # events refused busy (producer retries them)
    rejected_order: int = 0  # rejected for violating time order
    warnings: int = 0        # warnings raised so far
    last_time: int = -1      # newest accepted event timestamp

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


class StreamChannel:
    """One stream's bounded queue, worker loop and detector pool."""

    def __init__(
        self,
        stream_id: str,
        meta: MetaLearner,
        *,
        queue_bound: int = 4096,
        shards: int = 4,
        key: str = "midplane",
        chunk_events: int = 512,
        warning_ring: int = 256,
        manager_factory: Optional[ManagerFactory] = None,
        reference_events: int = 0,
        action_factory: Optional[ActionFactory] = None,
    ) -> None:
        check_positive(queue_bound, "queue_bound")
        check_positive(chunk_events, "chunk_events")
        if manager_factory is not None:
            check_positive(reference_events, "reference_events")
        self.stream_id = stream_id
        self.pool = DetectorPool(meta, shards=shards, key=key)
        self.chunk_events = int(chunk_events)
        self.stats = StreamStats()
        self.recent_warnings: deque[FailureWarning] = deque(maxlen=warning_ring)
        self.queue_bound = int(queue_bound)
        self._batches: deque[EventBatch] = deque()
        self.queue_depth = 0  # events queued, not yet taken by the worker
        self._arrived = asyncio.Event()
        self._classifier = meta.statistical.classifier
        self._manager_factory = manager_factory
        self._manager: Optional[ChunkConsumer] = None
        self.action_sink: Optional[ActionSink] = (
            action_factory(stream_id) if action_factory is not None else None
        )
        self._reference_events = int(reference_events)
        self._reference = EventBatch()  # pre-manager warm-up buffer
        self._chunk = EventBatch()      # lifecycle-mode partial chunk
        self._closing = False
        self._task: Optional[asyncio.Task] = None

    # ---------------------------------------------------------------- #
    # Producer side (called from connection handlers, synchronously)
    # ---------------------------------------------------------------- #

    @property
    def lag(self) -> int:
        """Events accepted but not yet fed through the pool."""
        return self.queue_depth + len(self._chunk) + len(self._reference)

    @property
    def pending_warnings(self) -> int:
        return self.pool.pending_count

    def offer(self, batch: EventBatch) -> tuple[str, int]:
        """Enqueue the longest acceptable prefix of ``batch``.

        Returns ``(verdict, accepted)``, the verdict being ``"ok"`` or that
        of the first refused event.  Per event, in order: a closing stream
        is ``"busy"``, an event older than the newest accepted one is
        ``"order"`` (dispatch is forward-only), a full queue is ``"busy"``.
        Never blocks; a full queue is the producer's problem (retry the
        unsent tail after the busy response).
        """
        stats = self.stats
        n = len(batch)
        room = 0 if self._closing else max(self.queue_bound - self.queue_depth, 0)
        accepted, verdict = min(n, room), ("busy" if n > room else "ok")
        last = stats.last_time
        for i, t in enumerate(batch.times[:accepted + 1]):
            if t < last:
                if not self._closing:
                    accepted, verdict = i, "order"
                break
            last = t
        if verdict == "order":
            stats.rejected_order += 1
        elif verdict == "busy":
            stats.dropped_busy += n - accepted
        if accepted:
            self._batches.append(batch if accepted == n else batch[:accepted])
            self.queue_depth += accepted
            self._arrived.set()
            stats.ingested += accepted
            stats.last_time = batch.times[accepted - 1]
        return verdict, accepted

    # ---------------------------------------------------------------- #
    # Consumer side (one worker task per channel)
    # ---------------------------------------------------------------- #

    def start(self) -> None:
        """Spawn the worker task on the running loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"stream-{self.stream_id}"
            )

    async def _run(self) -> None:
        while self._batches or not self._closing:
            if not self._batches:
                self._arrived.clear()
                await self._arrived.wait()
                continue
            self._feed(self._take())
            # Yield so other channels and connection handlers get a turn
            # even when this queue never runs empty.
            await asyncio.sleep(0)
        self._flush()

    def _take(self) -> EventBatch:
        """Pop queued events up to ``chunk_events`` as one batch.

        Draining whatever is already queued turns wire batching into
        columnar batching; a batch larger than the room left is split.
        """
        parts, room = [], self.chunk_events
        while self._batches and room:
            batch = self._batches.popleft()
            if len(batch) > room:
                self._batches.appendleft(batch[room:])
                batch = batch[:room]
            parts.append(batch)
            room -= len(batch)
        self.queue_depth -= self.chunk_events - room
        return EventBatch.concat(parts)

    def _store(self, batch: EventBatch) -> EventStore:
        return EventStore.from_batch(batch, self._classifier.classify)

    def _feed(self, batch: EventBatch) -> None:
        """Feed accepted events to the pool (plain) or manager (lifecycle)."""
        if self._manager_factory is None:
            self._consume(batch)
            return
        # Lifecycle mode: fill the drift-reference window first, then feed
        # exact chunk_events-sized chunks so retrain barriers are placed
        # deterministically, independent of wire batching.
        if self._manager is None:
            need = self._reference_events - len(self._reference)
            self._reference = EventBatch.concat([self._reference, batch[:need]])
            batch = batch[need:]
            if len(self._reference) < self._reference_events:
                return
            reference, self._reference = self._reference, EventBatch()
            store = self._store(reference)
            self._manager = self._manager_factory(self.pool, store)
            self._consume(reference, store)
        rest = EventBatch.concat([self._chunk, batch])
        size = self.chunk_events
        while len(rest) >= size:
            self._consume(rest[:size])
            rest = rest[size:]
        self._chunk = rest

    def _consume(self, batch: EventBatch, store: Optional[EventStore] = None) -> None:
        """Feed one chunk through the manager's serving loop, else the pool."""
        if not batch:
            return
        if store is None:
            store = self._store(batch)
        if self._manager is not None:
            raised = self._manager.feed(store)
        else:
            raised = self.pool.process_store(store)
        if self.action_sink is not None:
            self.action_sink.observe_store(store, list(raised))
        self.recent_warnings.extend(raised)
        self.stats.processed += len(batch)
        self.stats.warnings += len(raised)
        obs = get_registry()
        obs.counter("serve.daemon.events", len(batch), stream=self.stream_id)
        obs.observe("serve.daemon.batch_events", float(len(batch)))
        if raised:
            obs.counter(
                "serve.daemon.warnings", len(raised), stream=self.stream_id
            )

    # ---------------------------------------------------------------- #
    # Shutdown
    # ---------------------------------------------------------------- #

    async def close(self) -> None:
        """Stop accepting, let the worker drain everything, join it."""
        self._closing = True
        if self._task is None:
            self._flush()
            return
        self._arrived.set()
        await self._task

    def _flush(self) -> None:
        """Push any lifecycle-mode partial chunk / warm-up remainder through."""
        if self._reference:
            # Stream ended before the drift reference filled: feed the
            # buffered events plainly — no manager, no retraining.
            buffered, self._reference = self._reference, EventBatch()
            self._manager_factory = None
            self._consume(buffered)
        if self._chunk:
            tail, self._chunk = self._chunk, EventBatch()
            self._consume(tail)

    def finish(self) -> SessionStats:
        """Finalize the pool's sessions (resolve pending warnings)."""
        return self.pool.finish()

    @property
    def manager(self) -> Optional[ChunkConsumer]:
        """The lifecycle manager, once the reference window has filled."""
        return self._manager


@dataclass
class StreamRouter:
    """Lazily creates and tracks one :class:`StreamChannel` per stream id."""

    meta: MetaLearner
    queue_bound: int = 4096
    shards: int = 4
    key: str = "midplane"
    chunk_events: int = 512
    warning_ring: int = 256
    max_streams: int = 64
    manager_factory: Optional[ManagerFactory] = None
    reference_events: int = 0
    action_factory: Optional[ActionFactory] = None
    channels: dict[str, StreamChannel] = field(default_factory=dict)

    def channel(self, stream_id: str) -> StreamChannel:
        """The stream's channel, created (and its worker started) on first use."""
        existing = self.channels.get(stream_id)
        if existing is not None:
            return existing
        if len(self.channels) >= self.max_streams:
            raise ValueError(
                f"stream limit reached ({self.max_streams}); "
                f"refusing new stream {stream_id!r}"
            )
        channel = StreamChannel(
            stream_id,
            self.meta,
            queue_bound=self.queue_bound,
            shards=self.shards,
            key=self.key,
            chunk_events=self.chunk_events,
            warning_ring=self.warning_ring,
            manager_factory=self.manager_factory,
            reference_events=self.reference_events,
            action_factory=self.action_factory,
        )
        self.channels[stream_id] = channel
        channel.start()
        get_registry().gauge("serve.daemon.streams", float(len(self.channels)))
        return channel

    async def close_all(self) -> None:
        """Drain every channel, in stream-id order (deterministic)."""
        for stream_id in sorted(self.channels):
            await self.channels[stream_id].close()

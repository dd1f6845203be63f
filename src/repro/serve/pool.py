"""Sharded detector pool: many independent streams, one fitted model.

:class:`DetectorPool` runs one :class:`~repro.online.detector.OnlineSession`
per shard of the incoming stream (see :mod:`repro.serve.sharding` for the
partition keys).  Two entry points, both partitioning classified stores and
feeding each shard's part to :meth:`~repro.online.detector.OnlineSession.process_store`:

- :meth:`DetectorPool.process_store` — daemon mode: feed a chunk to the
  shards' persistent sessions and return the warnings it raised.
- :meth:`DetectorPool.replay` — throughput mode: replay a whole classified
  store on fresh sessions and return a :class:`PoolReport` with per-shard
  and combined statistics.

Replay optionally fans shards out across processes
(``jobs > 1`` or ``REPRO_JOBS``), reusing the evaluation engine's
worker-shipping pattern: the fitted meta-learner travels once per worker via
the pool initializer, shard sub-stores travel once per task, and results come
back in shard order — serial and parallel replays are bit-for-bit identical.

Observability (parent process): a ``serve.replay`` span,
``serve.shard_events`` counter, ``serve.feed_seconds`` per-shard histogram,
``serve.pending_warnings`` per-shard histogram and a ``serve.events_per_sec``
gauge.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro.evaluation.engine import resolve_jobs
from repro.meta.stacked import MetaLearner
from repro.obs import get_registry
from repro.online.detector import OnlineSession
from repro.online.resolution import SessionStats
from repro.predictors.base import FailureWarning
from repro.ras.backend import TableMap
from repro.ras.store import EventStore
from repro.serve.sharding import SHARD_KEYS, midplane_of, shard_ids, shard_of_key
from repro.util.validation import check_positive

#: Distinct locations the location -> shard memo holds at most.
_SHARD_CACHE_MAX = 8192


@dataclass(frozen=True)
class ShardReport:
    """Replay result of one shard (its events, in stream order)."""

    shard: int
    events: int
    seconds: float
    stats: SessionStats
    warnings: list[FailureWarning]


@dataclass(frozen=True)
class PoolReport:
    """Aggregate replay result across every shard of a store."""

    key: str
    shards: list[ShardReport]
    seconds: float
    combined: SessionStats = field(init=False)

    def __post_init__(self) -> None:
        combined = SessionStats()
        for shard in self.shards:
            combined.merge(shard.stats)
        object.__setattr__(self, "combined", combined)

    @property
    def events(self) -> int:
        return sum(s.events for s in self.shards)

    @property
    def warnings_total(self) -> int:
        return sum(len(s.warnings) for s in self.shards)

    @property
    def events_per_sec(self) -> float:
        if self.seconds <= 0.0:
            return float("inf") if self.events else 0.0
        return self.events / self.seconds


def _replay_parts(
    meta: MetaLearner,
    chunks: Iterable[list[tuple[int, EventStore]]],
    finalize: bool,
) -> list[ShardReport]:
    """Replay partitioned chunks on fresh per-shard sessions.

    ``chunks`` yields each chunk's ``(shard, sub-store)`` pairs in stream
    order; a shard's session carries over from chunk to chunk, so a whole
    store passed as one chunk and the same store in slices give the same
    reports.  Reports come back ascending by shard.
    """
    sessions: dict[int, OnlineSession] = {}
    warnings: dict[int, list[FailureWarning]] = {}
    events: dict[int, int] = {}
    seconds: dict[int, float] = {}
    for parts in chunks:
        for shard, part in parts:
            t0 = perf_counter()
            session = sessions.get(shard)
            if session is None:
                session = sessions[shard] = OnlineSession(meta)
                warnings[shard], events[shard], seconds[shard] = [], 0, 0.0
            warnings[shard].extend(session.process_store(part))
            events[shard] += len(part)
            seconds[shard] += perf_counter() - t0
    reports = []
    for shard in sorted(sessions):
        t0 = perf_counter()
        session = sessions[shard]
        stats = session.finish() if finalize else session.stats
        reports.append(
            ShardReport(
                shard=shard,
                events=events[shard],
                seconds=seconds[shard] + perf_counter() - t0,
                stats=stats,
                warnings=warnings[shard],
            )
        )
    return reports


# Per-worker global, installed once by the pool initializer so the fitted
# meta-learner is not re-pickled for every shard task.
_WORKER_META: Optional[MetaLearner] = None


def _init_worker(meta: MetaLearner) -> None:
    global _WORKER_META
    _WORKER_META = meta


def _replay_in_worker(task: tuple[int, EventStore, bool]) -> ShardReport:
    assert _WORKER_META is not None, "worker initializer did not run"
    shard, store, finalize = task
    return _replay_parts(_WORKER_META, [[(shard, store)]], finalize)[0]


class DetectorPool:
    """A fixed set of detector shards fed from one fitted meta-learner.

    Each shard owns an independent :class:`OnlineSession` (its own dispatch
    state machine and warning resolver); events are routed by ``key``
    (``"midplane"`` or ``"job"``).  Sharding deliberately changes the stream
    a detector sees — that is the deployment model, one detector per
    midplane/job partition, not an approximation of the unsharded stream.
    With ``shards=1`` the pool degenerates to a single plain session and its
    output is bit-identical to :class:`OnlineSession` (tested).
    """

    def __init__(self, meta: MetaLearner, shards: int = 4, key: str = "midplane"):
        if key not in SHARD_KEYS:
            raise ValueError(f"unknown shard key {key!r}; choose from {SHARD_KEYS}")
        check_positive(shards, "shards")
        if not meta.is_fitted:
            raise ValueError("MetaLearner must be fitted before serving")
        self.meta = meta
        self.shards = shards = int(shards)
        self.key = key
        self._sessions: dict[int, OnlineSession] = {}
        self._shard_cache: dict[str, int] = {}
        #: Compiled once per location table: location id -> shard.
        self._location_shards = TableMap(self._shard_of_location)

    def _shard_of_location(self, location: str) -> int:
        """The midplane shard of ``location``, memoized by the string: each
        daemon chunk store comes with fresh intern tables, so the map per
        table alone would hash every location again for every chunk."""
        cache = self._shard_cache
        shard = cache.get(location)
        if shard is None:
            if len(cache) >= _SHARD_CACHE_MAX:
                cache.clear()  # an open vocabulary cannot grow memory
            shard = cache[location] = shard_of_key(midplane_of(location), self.shards)
        return shard

    # ---------------------------------------------------------------- #
    # Daemon mode (persistent sessions, chunk by chunk)
    # ---------------------------------------------------------------- #

    def session(self, shard: int) -> OnlineSession:
        """The shard's persistent session (created lazily)."""
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard must be in [0, {self.shards}), got {shard}")
        existing = self._sessions.get(shard)
        if existing is None:
            existing = self._sessions[shard] = OnlineSession(self.meta)
        return existing

    def process_store(self, store: EventStore) -> list[FailureWarning]:
        """Feed a classified chunk through the *persistent* shard sessions.

        The daemon-mode counterpart of :meth:`replay`: shard state (window
        machines, pending warnings) carries over across calls, so a stream
        can be fed chunk by chunk — the lifecycle manager's serving loop.
        Warnings are returned grouped by shard, ascending (each shard's
        sub-list is in stream order).
        """
        warnings: list[FailureWarning] = []
        for shard, part in self.partition(store):
            warnings.extend(self.session(shard).process_store(part))
        return warnings

    def swap_model(self, model: object) -> int:
        """Hot-swap every live session onto a new fitted model.

        ``model`` is a fitted :class:`MetaLearner`, anything exposing one as
        ``.meta`` (e.g. a three-phase predictor or a loaded lifecycle
        snapshot) — the pool stays decoupled from the registry.  The swap
        happens at a warning-safe barrier: callers invoke it between events
        or chunks, each session's dispatch stream restarts cold on the new model,
        and pending old-model warnings keep resolving (see
        :meth:`~repro.online.detector.OnlineSession.swap_model`).  Returns
        the number of sessions swapped; later lazily-created sessions pick
        up the new model automatically.
        """
        meta = getattr(model, "meta", model)
        if not isinstance(meta, MetaLearner):
            raise TypeError(
                f"swap_model needs a MetaLearner or an object exposing one "
                f"as .meta, got {type(model).__name__}"
            )
        if not meta.is_fitted:
            raise ValueError("MetaLearner must be fitted before serving")
        obs = get_registry()
        t0 = perf_counter()
        pending = 0
        self.meta = meta
        for shard in sorted(self._sessions):
            session = self._sessions[shard]
            pending += session.pending_count
            session.swap_model(meta)
        seconds = perf_counter() - t0
        obs.observe("serve.swap_seconds", seconds)
        obs.counter("serve.swaps")
        obs.observe("serve.swap_pending_warnings", float(pending))
        return len(self._sessions)

    @property
    def pending_count(self) -> int:
        """Warnings pending across the persistent shard sessions."""
        return sum(s.pending_count for s in self._sessions.values())

    def combined_stats(self) -> SessionStats:
        """Merged counters across the persistent shard sessions."""
        combined = SessionStats()
        for shard in sorted(self._sessions):
            combined.merge(self._sessions[shard].stats)
        return combined

    def finish(self) -> SessionStats:
        """Finalize every persistent session; returns merged counters."""
        combined = SessionStats()
        for shard in sorted(self._sessions):
            combined.merge(self._sessions[shard].finish())
        return combined

    # ---------------------------------------------------------------- #
    # Replay mode (whole classified store, batched)
    # ---------------------------------------------------------------- #

    def partition(self, store: EventStore) -> list[tuple[int, EventStore]]:
        """Non-empty ``(shard, sub-store)`` pairs, ascending by shard.

        Each sub-store preserves stream order within its shard; intern
        tables are shared with the parent store (``select`` semantics).
        One shard takes the store itself; midplane keys go through a
        location -> shard map compiled once per location table.
        """
        if self.shards == 1:
            return [(0, store)] if len(store) else []
        if self.key == "midplane":
            assignment = self._location_shards(store.location_table)[store.location_ids]
        else:
            assignment = shard_ids(store, self.key, self.shards)
        parts = []
        for shard in range(self.shards):
            idx = np.flatnonzero(assignment == shard)
            if len(idx):
                parts.append((shard, store.select(idx)))
        return parts

    def replay(
        self,
        store: EventStore,
        *,
        jobs: Optional[int] = None,
        finalize: bool = True,
        chunk_events: Optional[int] = None,
    ) -> PoolReport:
        """Partition and replay a whole classified store; returns the report.

        Replay uses fresh sessions (one per non-empty shard) so it never
        perturbs the persistent daemon-mode sessions.  ``finalize=True``
        resolves warnings still pending at end of stream (end-of-shift
        accounting); ``jobs`` follows the evaluation engine's convention
        (``None`` -> ``REPRO_JOBS`` -> serial).

        ``chunk_events`` reads the store in contiguous slices of at most
        that many rows; each slice is partitioned and fed to the same
        per-shard sessions, so on a columnar store only one chunk's shard
        materializations sit in RAM at a time.  The report (per-shard
        warnings and stats) is identical to the whole-store replay, which
        is the same loop with the store as one chunk.  Chunked replay is
        serial — ``jobs`` is ignored.
        """
        if chunk_events is not None:
            check_positive(chunk_events, "chunk_events")
            chunks: Iterable[list[tuple[int, EventStore]]] = map(
                self.partition, store.iter_chunks(chunk_events)
            )
            backend = "streaming"
        else:
            jobs = resolve_jobs(jobs)
            parts = self.partition(store)
            chunks = [parts]
            backend = "process" if (jobs > 1 and len(parts) > 1) else "serial"
        obs = get_registry()
        t0 = perf_counter()
        with obs.span(
            "serve.replay", backend=backend, key=self.key, shards=str(self.shards)
        ):
            if backend == "process":
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(parts)),
                    initializer=_init_worker,
                    initargs=(self.meta,),
                ) as pool:
                    reports = list(
                        pool.map(
                            _replay_in_worker,
                            [(shard, part, finalize) for shard, part in parts],
                        )
                    )
            else:
                reports = _replay_parts(self.meta, chunks, finalize)
        report = PoolReport(key=self.key, shards=reports, seconds=perf_counter() - t0)
        self._emit_replay_metrics(report)
        return report

    def _emit_replay_metrics(self, report: PoolReport) -> None:
        obs = get_registry()
        for shard_report in report.shards:
            obs.counter(
                "serve.shard_events",
                shard_report.events,
                shard=str(shard_report.shard),
            )
            obs.observe("serve.feed_seconds", shard_report.seconds)
            obs.observe(
                "serve.pending_warnings",
                float(
                    shard_report.stats.warnings
                    - shard_report.stats.hits
                    - shard_report.stats.false_alarms
                ),
            )
        obs.gauge("serve.events_per_sec", report.events_per_sec)

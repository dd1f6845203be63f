"""Reference implementations the fast paths are checked against.

:func:`reference_step` is the meta-learner's §3.3 coverage dispatch, one
event at a time, over a :class:`~repro.meta.stacked.MetaStream`'s own state,
so a stream can be driven by it or by the batch loop (``MetaStream.detect``)
and the two compared warning for warning.  :class:`LegacyDequeResolver` is
the seed's warning resolution (an O(P) deque rebuild per event).
:func:`reference_event_from_dict` decodes one wire event payload into a
:class:`RasEvent` (the columnar ``decode_events`` is checked against it) and
:class:`ReferenceOffers` is a stream channel's admission, one event at a
time.  :func:`reference_cross_validate` is the serial §3.2 fold loop over
zero-arg predictor factories that the evaluation engine's spec-based
``cross_validate`` is checked against.  Do not optimise these: their value
is that they are obviously right, and the deque resolver's cost is what the
heap resolver is benchmarked against.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, Optional

import numpy as np

from repro.evaluation.crossval import CVResult, fold_index_ranges
from repro.evaluation.matching import MatchResult, match_warnings
from repro.evaluation.metrics import Metrics
from repro.meta.stacked import MetaLearner, MetaStream
from repro.online.resolution import SessionStats, WarningResolver
from repro.predictors.base import FailureWarning, Predictor
from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.store import EventStore
from repro.serve.protocol import ProtocolError
from repro.serve.streams import StreamStats
from repro.serve.sharding import midplane_of, shard_of_key
from repro.taxonomy.categories import MainCategory


def reference_step(
    ms: MetaStream, t: int, item: int, is_fatal: bool, category: MainCategory
) -> list[FailureWarning]:
    """Dispatch one event (an id in ``ms``'s item space); 0 or 1 warnings."""
    t = int(t)
    if ms._last_time is not None and t < ms._last_time:
        raise ValueError(f"events must arrive in time order ({t} < {ms._last_time})")
    ms._last_time = t
    while ms._window_events and ms._window_events[0][0] < t - ms.w:
        ms._matcher.remove(ms._window_events.popleft()[1])
    for history in (ms._fatal_history, ms._trigger_history):
        while history and history[0] < t - ms.stat_hi:
            history.popleft()
    out: list[FailureWarning] = []

    if not is_fatal:
        ms._window_events.append((t, item))
        if ms._matcher.add(item):
            best = ms._matcher.best_satisfied()
            if best is not None:
                if ms._fatal_history:
                    # Case 3 at a non-fatal arrival: defer to the statistical
                    # method only if one of its warnings is actually active
                    # and more confident.
                    active = [c for end, c in ms._stat_conf_until if t <= end]
                    if best.confidence >= max(active, default=0.0):
                        w = ms._emit_rule(t, best)
                        if w:
                            out.append(w)
                else:
                    # Case 1: only non-fatal context.
                    w = ms._emit_rule(t, best)
                    if w:
                        out.append(w)
        return out

    # Fatal event: the statistical method's trigger point.
    stat_conf = ms.statistical.candidate_confidence(category)
    if stat_conf is not None and not ms._trigger_history:
        # A trigger with no trigger-category history is the potential
        # *start* of a pattern, not evidence of one.
        stat_conf = None
    nonfatal_present = ms._matcher.has_observed()
    best = ms._matcher.best_satisfied() if nonfatal_present else None
    if stat_conf is not None:
        if not nonfatal_present:
            # Case 2: only fatal context -> statistical method.
            w = ms._emit_stat(t, category, stat_conf)
            if w:
                out.append(w)
        else:
            # Case 3: both present -> higher confidence wins.
            rule_conf = best.confidence if best is not None else 0.0
            if stat_conf > rule_conf:
                w = ms._emit_stat(t, category, stat_conf)
                if w:
                    out.append(w)
            elif best is not None:
                w = ms._emit_rule(t, best)
                if w:
                    out.append(w)
    elif best is not None:
        # Case 1 with a fatal of a non-trigger category: the rule method
        # covers what the statistical method cannot.
        w = ms._emit_rule(t, best)
        if w:
            out.append(w)
    ms._fatal_history.append(t)
    if category in ms.trigger_set:
        ms._trigger_history.append(t)
    return out


def reference_cross_validate(
    factory: Callable[[], Predictor], events: EventStore, k: int
) -> CVResult:
    """Serial k-fold CV: a fresh ``factory()`` per contiguous fold."""
    n = len(events)
    all_idx = np.arange(n)
    fold_metrics: list[Metrics] = []
    fold_matches: list[MatchResult] = []
    for start, end in fold_index_ranges(n, k):
        test = events.select(slice(start, end))
        train_idx = np.concatenate([all_idx[:start], all_idx[end:]])
        train = events.select(train_idx)
        predictor = factory()
        predictor.fit(train)
        warnings = predictor.predict(test)
        match = match_warnings(warnings, test)
        fold_metrics.append(match.metrics)
        fold_matches.append(match)
    return CVResult(fold_metrics=fold_metrics, fold_matches=fold_matches)


def reference_feed(ms: MetaStream, event: RasEvent) -> list[FailureWarning]:
    """Map one event's label into ``ms``'s item space by name and dispatch it."""
    clf = ms.statistical.classifier
    label = event.subcategory or clf.classify(event.entry_data)
    if label not in ms._item_index:
        label = clf.label_names[-1]  # a label the model never saw: fallback
    return reference_step(
        ms, event.time, ms._item_index[label], event.is_fatal,
        clf.category_of_label(label),
    )


def reference_detect(ms: MetaStream, store: EventStore) -> list[FailureWarning]:
    """:func:`reference_feed` over every event of ``store``, in order."""
    return [w for event in store for w in reference_feed(ms, event)]


class ReferenceSession:
    """Per-event session: reference dispatch, then per-event resolution."""

    def __init__(self, meta: MetaLearner) -> None:
        self.stream = meta.stream()
        self.resolver = WarningResolver()

    def swap_model(self, meta: MetaLearner) -> None:
        self.stream = meta.stream()

    def process(self, event: RasEvent) -> list[FailureWarning]:
        resolver = self.resolver
        resolver.advance(event.time)
        resolver.stats.events += 1
        if event.is_fatal:
            resolver.observe_failure(event.time)
        raised = reference_feed(self.stream, event)
        for w in raised:
            resolver.add(w)
        return raised

    def finish(self) -> SessionStats:
        return self.resolver.finalize()


def reference_shard(event: RasEvent, key: str, shards: int) -> int:
    """The shard one event routes to under ``key`` (``"midplane"``/``"job"``)."""
    if key == "job":
        return int(event.job_id % shards)
    return shard_of_key(midplane_of(event.location), shards)


def reference_pool_stats(
    meta: MetaLearner, events, *, shards: int, key: str
) -> SessionStats:
    """Per-event routing into per-shard reference sessions, finalized."""
    sessions = defaultdict(lambda: ReferenceSession(meta))
    for event in events:
        sessions[reference_shard(event, key, shards)].process(event)
    combined = SessionStats()
    for shard in sorted(sessions):
        combined.merge(sessions[shard].finish())
    return combined


class LegacyDequeResolver:
    """The seed ``OnlineSession`` resolution logic, verbatim (the oracle)."""

    def __init__(self) -> None:
        self.stats = SessionStats()
        self._pending: deque[tuple[FailureWarning, bool]] = deque()

    def _expire(self, now: int) -> None:
        keep: deque[tuple[FailureWarning, bool]] = deque()
        for warning, hit in self._pending:
            if warning.horizon_end < now:
                if hit:
                    self.stats.hits += 1
                else:
                    self.stats.false_alarms += 1
            else:
                keep.append((warning, hit))
        self._pending = keep

    def process(self, now: int, is_fatal: bool, raised: list[FailureWarning]):
        self._expire(now)
        self.stats.events += 1
        if is_fatal:
            self.stats.failures += 1
            covered = False
            earliest_issue: Optional[int] = None
            updated: deque[tuple[FailureWarning, bool]] = deque()
            for warning, hit in self._pending:
                if warning.covers(now):
                    hit = True
                    covered = True
                    if earliest_issue is None or warning.issued_at < earliest_issue:
                        earliest_issue = warning.issued_at
                updated.append((warning, hit))
            self._pending = updated
            if covered:
                self.stats.caught_failures += 1
                assert earliest_issue is not None
                self.stats.lead_seconds.append(now - earliest_issue)
            else:
                self.stats.missed_failures += 1
        for w in raised:
            self.stats.warnings += 1
            self._pending.append((w, False))

    def finish(self) -> SessionStats:
        self._expire(now=2**62)
        return self.stats


def _require_str(doc: dict, key: str) -> str:
    value = doc.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"event field {key!r} must be a non-empty string")
    return value


def _require_int(doc: dict, key: str, default: Optional[int] = None) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"event field {key!r} must be an integer")
    return value


def reference_event_from_dict(doc: Any) -> RasEvent:
    """Decode one event payload; any malformation raises :class:`ProtocolError`."""
    if not isinstance(doc, dict):
        raise ProtocolError("event payload must be a JSON object")
    time = _require_int(doc, "time")
    location = _require_str(doc, "location")
    entry_data = _require_str(doc, "entry_data")
    facility_name = _require_str(doc, "facility").upper()
    severity_name = _require_str(doc, "severity").upper()
    try:
        facility = Facility[facility_name]
    except KeyError:
        raise ProtocolError(f"unknown facility {facility_name!r}") from None
    try:
        severity = Severity[severity_name]
    except KeyError:
        raise ProtocolError(f"unknown severity {severity_name!r}") from None
    subcategory = doc.get("subcategory")
    if subcategory is not None and not isinstance(subcategory, str):
        raise ProtocolError("event field 'subcategory' must be a string")
    event_type = doc.get("event_type", "RAS")
    if not isinstance(event_type, str):
        raise ProtocolError("event field 'event_type' must be a string")
    try:
        return RasEvent(
            time=time,
            location=location,
            facility=facility,
            severity=severity,
            entry_data=entry_data,
            job_id=_require_int(doc, "job_id", NO_JOB),
            event_type=event_type,
            subcategory=subcategory,
        )
    except ValueError as exc:  # RasEvent's own invariants (time >= 0, ...)
        raise ProtocolError(str(exc)) from None


class ReferenceOffers:
    """A stream channel's admission, one event at a time.

    Per event: closing -> ``busy``, older than the newest accepted event ->
    ``order``, queue full -> ``busy``.  A frame stops at its first refused
    event; ``busy`` counts every refused event of the frame, ``order`` the
    one out-of-order event.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.depth = 0
        self.closing = False
        self.stats = StreamStats()
        self.queued: list[RasEvent] = []

    def offer_one(self, event: RasEvent) -> str:
        if self.closing:
            return "busy"
        if event.time < self.stats.last_time:
            self.stats.rejected_order += 1
            return "order"
        if self.depth >= self.bound:
            return "busy"
        self.depth += 1
        self.queued.append(event)
        self.stats.ingested += 1
        self.stats.last_time = event.time
        return "ok"

    def offer(self, events: list[RasEvent]) -> tuple[str, int]:
        for accepted, event in enumerate(events):
            verdict = self.offer_one(event)
            if verdict == "busy":
                self.stats.dropped_busy += len(events) - accepted
            if verdict != "ok":
                return verdict, accepted
        return "ok", len(events)

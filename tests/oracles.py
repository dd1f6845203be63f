"""Reference implementations the fast paths are checked against.

:func:`reference_step` is the meta-learner's §3.3 coverage dispatch, one
event at a time, over a :class:`~repro.meta.stacked.MetaStream`'s own state,
so a stream can be driven by it or by the batch loop (``MetaStream.detect``)
and the two compared warning for warning.  :class:`LegacyDequeResolver` is
the seed's warning resolution (an O(P) deque rebuild per event).
:class:`PerChunkPool` and :class:`RowByRowEngine` are the serving pool and
the action engine without tables compiled per model or per intern table
(labels through ``item_ids_for``, shards through ``shard_ids``, locations
one row at a time), and :class:`ScanJobView` is the stream job view that
scans every record per query.
:func:`reference_event_from_dict` decodes one wire event payload into a
:class:`RasEvent` (the columnar ``decode_events`` is checked against it) and
:class:`ReferenceOffers` is a stream channel's admission, one event at a
time.  :func:`reference_cross_validate` is the serial §3.2 fold loop over
zero-arg predictor factories that the evaluation engine's spec-based
``cross_validate`` is checked against.  :func:`apriori` is the paper's
cited level-wise frequent-itemset miner (Agrawal & Srikant, VLDB'94 — paper
[1]) and :func:`reference_rules` mines rules through it, Steps 2-4 on
frozensets (:func:`rules_from_itemsets`) and a full-scan body counter; the
mining engine (``repro.mining.incremental``, Steps 2-4 on bit masks) is
checked against both.  :func:`reference_compress` is Phase 1's temporal or
spatial compression as one whole-store pass, the earliest-max-severity
representative per cluster; the chunked ``ClusterCompressor`` is checked
against it.  Do not optimise these: their value is that they are obviously right,
and the deque resolver's and Apriori's costs are what the heap resolver and
the engine are benchmarked against.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import combinations
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.actions.engine import ActionEngine
from repro.actions.jobview import RunningJob
from repro.evaluation.crossval import CVResult, fold_index_ranges
from repro.evaluation.matching import MatchResult, match_warnings
from repro.evaluation.metrics import Metrics
from repro.meta.stacked import MetaLearner, MetaStream
from repro.mining.counts import min_count_for
from repro.mining.rules import Rule, RuleSet, item_ids_for
from repro.mining.transactions import EventSetDB
from repro.online.detector import OnlineSession
from repro.online.resolution import SessionStats, WarningResolver
from repro.predictors.base import FailureWarning, Predictor
from repro.preprocess.compression import CompressionStats
from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.store import EventStore
from repro.serve.protocol import ProtocolError
from repro.serve.streams import StreamStats
from repro.serve.sharding import midplane_of, shard_ids, shard_of_key
from repro.taxonomy.categories import MainCategory
from repro.util.validation import check_fraction


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


class PerCallStream(MetaStream):
    """A dispatch stream mapping labels through ``item_ids_for`` on every call."""

    @classmethod
    def of(cls, meta: MetaLearner) -> "PerCallStream":
        return cls(meta.rulebased.ruleset, meta.statistical, meta.prediction_window, meta.name)

    def item_ids(self, store: EventStore) -> np.ndarray:
        return item_ids_for(store, self._item_index, self._unseen)


class PerChunkPool:
    """The serving path without compiled tables: every chunk is partitioned
    by ``shard_ids`` into ``select`` copies (one shard included) and every
    shard maps its labels through ``item_ids_for``."""

    def __init__(self, meta: MetaLearner, shards: int, key: str) -> None:
        self.meta, self.shards, self.key = meta, shards, key
        self.sessions: dict[int, OnlineSession] = {}

    def _session(self, shard: int) -> OnlineSession:
        session = self.sessions.get(shard)
        if session is None:
            session = self.sessions[shard] = OnlineSession(self.meta)
            session._stream = PerCallStream.of(self.meta)
        return session

    def partition(self, store: EventStore) -> list[tuple[int, EventStore]]:
        assignment = shard_ids(store, self.key, self.shards)
        parts = [(s, np.flatnonzero(assignment == s)) for s in range(self.shards)]
        return [(s, store.select(idx)) for s, idx in parts if len(idx)]

    def process_store(self, store: EventStore) -> list[FailureWarning]:
        return [
            w
            for shard, part in self.partition(store)
            for w in self._session(shard).process_store(part)
        ]

    def swap_model(self, meta: MetaLearner) -> None:
        self.meta = meta
        for session in self.sessions.values():
            session.swap_model(meta)
            session._stream = PerCallStream.of(meta)

    def finish(self) -> SessionStats:
        combined = SessionStats()
        for shard in sorted(self.sessions):
            combined.merge(self.sessions[shard].finish())
        return combined


class RowByRowEngine(ActionEngine):
    """``ActionEngine`` absorbing each row through ``view.observe(t, location,
    job)``, deciding and expiring at every row, with no per-table map."""

    def observe_store(self, store: EventStore, warnings: list[FailureWarning]) -> None:
        self._pending.extend(warnings)
        for t, loc_id, job, fatal in zip(
            store.times.tolist(),
            store.location_ids.tolist(),
            store.jobs.tolist(),
            store.fatal_mask().tolist(),
        ):
            self._decide_before(t)
            self._expire_before(t)
            location = store.location_table[loc_id]
            self.view.observe(t, location, job)
            if fatal:
                self._on_fatal(t, self.view.midplane_index(location))


class ScanJobView:
    """Stream-inferred job view that scans every job record per query."""

    def __init__(self, ttl_seconds: float, nodes_per_midplane: int = 512) -> None:
        self.ttl = ttl_seconds
        self.nodes = nodes_per_midplane
        self.mp_index: dict[str, int] = {}
        self.jobs: dict[int, tuple[float, float, set[int]]] = {}

    def midplane_index(self, location: str) -> int:
        if not location:
            return -1
        return self.mp_index.setdefault(midplane_of(location), len(self.mp_index))

    def observe(self, time: float, location: str, job_id: int) -> None:
        mp = self.midplane_index(location)
        if job_id < 0:
            return
        first, last, mps = self.jobs.get(job_id, (time, time, set()))
        self.jobs[job_id] = (first, max(last, time), mps | ({mp} if mp >= 0 else set()))

    def forget(self, job_id: int) -> None:
        self.jobs.pop(job_id, None)

    def running(self, now: float) -> list[RunningJob]:
        return [
            RunningJob(job_id, int(first), tuple(sorted(mps)), self.nodes * max(len(mps), 1))
            for job_id, (first, last, mps) in sorted(self.jobs.items())
            if first <= now <= last + self.ttl
        ]

    def occupant(self, midplane: int, now: float) -> Optional[RunningJob]:
        on = [job for job in self.running(now) if midplane in job.midplanes]
        return on[0] if on else None


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


def _count_candidates(
    transactions: Sequence[frozenset[int]],
    candidates: set[frozenset[int]],
    k: int,
) -> dict[frozenset[int], int]:
    """Count how many transactions contain each candidate k-itemset."""
    counts: dict[frozenset[int], int] = defaultdict(int)
    for t in transactions:
        if len(t) < k:
            continue
        # Enumerating the transaction's own k-subsets is cheaper than testing
        # every candidate when the transaction is short; otherwise test the
        # candidate set directly.
        n_subsets = 1
        for i in range(k):
            n_subsets = n_subsets * (len(t) - i) // (i + 1)
            if n_subsets > len(candidates):
                break
        if n_subsets <= len(candidates):
            for combo in combinations(sorted(t), k):
                fs = frozenset(combo)
                if fs in candidates:
                    counts[fs] += 1
        else:
            for c in candidates:
                if c <= t:
                    counts[c] += 1
    return dict(counts)


def _join_step(frequent_k: list[frozenset[int]]) -> set[frozenset[int]]:
    """Join frequent k-itemsets sharing a (k-1)-prefix into (k+1)-candidates."""
    sorted_sets = sorted(tuple(sorted(s)) for s in frequent_k)
    candidates: set[frozenset[int]] = set()
    for i in range(len(sorted_sets)):
        for j in range(i + 1, len(sorted_sets)):
            a, b = sorted_sets[i], sorted_sets[j]
            if a[:-1] != b[:-1]:
                break  # sorted order: no later j can share the prefix
            candidates.add(frozenset(a) | frozenset(b))
    return candidates


def _prune_step(
    candidates: set[frozenset[int]], frequent_k: set[frozenset[int]], k: int
) -> set[frozenset[int]]:
    """Drop candidates having an infrequent k-subset (apriori property)."""
    return {
        c
        for c in candidates
        if all(frozenset(sub) in frequent_k for sub in combinations(c, k))
    }


def apriori(
    transactions: Sequence[frozenset[int]],
    min_support: float,
    max_len: int = 6,
) -> dict[frozenset[int], int]:
    """All itemsets with support >= ``min_support``, with absolute counts.

    The classic level-wise algorithm: frequent k-itemsets are joined into
    (k+1)-candidates, candidates with an infrequent subset are pruned, and
    the survivors are counted against the database.  ``max_len`` caps the
    itemset size.
    """
    check_fraction(min_support, "min_support")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    n = len(transactions)
    if n == 0:
        return {}
    min_count = min_count_for(min_support, n)

    item_counts: dict[int, int] = defaultdict(int)
    for t in transactions:
        for item in t:
            item_counts[item] += 1
    frequent = [
        frozenset({item}) for item, c in item_counts.items() if c >= min_count
    ]
    result = {fs: item_counts[next(iter(fs))] for fs in frequent}
    k = 1
    while frequent and k < max_len:
        candidates = _prune_step(_join_step(frequent), set(frequent), k)
        if not candidates:
            break
        counts = _count_candidates(transactions, candidates, k + 1)
        frequent = [fs for fs, c in counts.items() if c >= min_count]
        for fs in frequent:
            result[fs] = counts[fs]
        k += 1
    return result


def rule_candidates(
    itemsets: dict[frozenset[int], int], fatal_items: frozenset[int]
) -> list[tuple[frozenset[int], frozenset[int], int]]:
    """The Step-2 candidates ``(body, head, count)``: the itemsets with
    exactly one fatal item and a non-empty body."""
    return [
        (itemset - head, head, count)
        for itemset, count in itemsets.items()
        if len(itemset) > 1 and len(head := itemset & fatal_items) == 1
    ]


def _prune_generalizations(rules: list[Rule]) -> list[Rule]:
    """Drop rules subsumed by a more specific, at-least-as-confident rule.

    Rule ``a`` is subsumed when some rule ``b`` has ``a.body < b.body``, a
    head in common and ``b.confidence >= a.confidence``.  Every rule ``b``
    records its confidence under each ``(non-empty proper sub-body, head)``
    it specialises, keeping the maximum; ``a`` is subsumed iff that maximum
    at ``(a.body, h)`` reaches ``a.confidence`` for some head ``h``.  Input
    order is kept.
    """
    best: dict[tuple[frozenset[int], int], float] = {}
    for b in rules:
        body = tuple(b.body)
        for size in range(1, len(body)):
            for sub in combinations(body, size):
                for head in b.heads:
                    key = (frozenset(sub), head)
                    if best.get(key, -1.0) < b.confidence:
                        best[key] = b.confidence
    return [
        a
        for a in rules
        if not any(best.get((a.body, h), -1.0) >= a.confidence for h in a.heads)
    ]


#: Counts a rule body against the database: ``(body_count, hit_count)``,
#: hit_count being the body-containing transactions that hold a head too.
BodyCounter = Callable[[frozenset[int], frozenset[int]], tuple[int, int]]


def ruleset_of(
    rules: Sequence[Rule], item_names: Sequence[str], fatal_items: frozenset[int]
) -> RuleSet:
    """The :class:`RuleSet` of :class:`Rule` objects, already in rule order."""
    return RuleSet(
        [sorted(r.body) for r in rules],
        [sorted(r.heads) for r in rules],
        [r.confidence for r in rules],
        [r.support for r in rules],
        [r.support_count for r in rules],
        item_names,
        fatal_items,
    )


def rules_from_itemsets(
    freq: dict[frozenset[int], int],
    n_transactions: int,
    *,
    item_names: Sequence[str],
    fatal_items: frozenset[int],
    min_confidence: float = 0.2,
    combine: bool = True,
    prune_generalizations: bool = True,
    body_counter: BodyCounter,
) -> RuleSet:
    """Steps 2-4 on an ``itemset -> count`` dict, one frozenset at a time."""
    n = n_transactions
    if n == 0:
        return ruleset_of([], item_names, fatal_items)
    # Step 2: single-head rules body(non-fatal) -> head(fatal).
    singles = [
        Rule(body, head, count / freq[body], count / n, count)
        for body, head, count in rule_candidates(freq, fatal_items)
        if count / freq[body] >= min_confidence
    ]
    if prune_generalizations:
        singles = _prune_generalizations(singles)
    rules = singles
    if combine:
        # Step 3: combine rules sharing a body; confidence P(any head | body).
        by_body: dict[frozenset[int], list[Rule]] = defaultdict(list)
        for r in singles:
            by_body[r.body].append(r)
        rules = []
        for body, same_body in by_body.items():
            if len(same_body) == 1:
                rules.append(same_body[0])
                continue
            heads = frozenset().union(*(r.heads for r in same_body))
            body_count, hits = body_counter(body, heads)
            conf = hits / body_count if body_count else 0.0
            rules.append(Rule(body, heads, conf, hits / n, hits))
    # Step 4: descending confidence, then support, then contents.
    rules.sort(
        key=lambda r: (
            -r.confidence, -r.support_count, sorted(r.body), sorted(r.heads)
        )
    )
    return ruleset_of(rules, item_names, fatal_items)


def reference_rules(
    db: EventSetDB,
    min_support: float = 0.04,
    min_confidence: float = 0.2,
    max_len: int = 6,
    combine: bool = True,
    prune_generalizations: bool = True,
) -> RuleSet:
    """``generate_rules`` through :func:`apriori`, the frozenset Steps 2-4
    above and a full-scan body count."""
    transactions = db.transactions()

    def scan_body(body: frozenset[int], heads: frozenset[int]) -> tuple[int, int]:
        hits = [t for t in transactions if body <= t]
        return len(hits), sum(1 for t in hits if t & heads)

    freq = apriori(transactions, min_support, max_len=max_len)
    return rules_from_itemsets(
        freq,
        len(transactions),
        item_names=db.item_names,
        fatal_items=db.fatal_items,
        min_confidence=min_confidence,
        combine=combine,
        prune_generalizations=prune_generalizations,
        body_counter=scan_body,
    )


def reference_compress(
    store: EventStore, keys: Sequence[str], threshold: float
) -> tuple[np.ndarray, CompressionStats]:
    """Phase-1 compression as one whole-store pass: the paper-literal
    earliest-max-severity representative per (key, time-gap) cluster.

    Returns the representatives' row indices in store order and the stats;
    ``ClusterCompressor`` fed any chunking of a time-sorted store must
    return exactly these.
    """
    n = len(store)
    stats = CompressionStats(input_records=n)
    if n == 0:
        return np.empty(0, dtype=np.int64), stats
    key_arrays = [store.column(k) for k in keys]
    order = np.lexsort([store.times, *key_arrays])
    t = store.times[order]
    key_cols = [k[order] for k in key_arrays]

    # New cluster where any key changes or the time gap exceeds the threshold.
    new_cluster = np.ones(n, dtype=bool)
    if n > 1:
        same_key = np.ones(n - 1, dtype=bool)
        for k in key_cols:
            same_key &= k[1:] == k[:-1]
        small_gap = (t[1:] - t[:-1]) <= threshold
        new_cluster[1:] = ~(same_key & small_gap)
    cluster_id = np.cumsum(new_cluster) - 1
    n_clusters = int(cluster_id[-1]) + 1

    # Representative: earliest record of the cluster's max severity.
    sev = store.severities[order].astype(np.int64)
    starts = np.flatnonzero(new_cluster)
    max_sev = np.maximum.reduceat(sev, starts)
    max_rows = np.flatnonzero(sev == max_sev[cluster_id])
    _, first_idx = np.unique(cluster_id[max_rows], return_index=True)
    rep_idx = np.sort(order[max_rows[first_idx]])

    kept_mask = np.zeros(n, dtype=bool)
    kept_mask[rep_idx] = True
    stats.removed_by_severity = np.bincount(
        store.severities[~kept_mask], minlength=6
    ).astype(np.int64)
    stats.output_records = n_clusters
    stats.clusters_merged = int(np.sum(np.diff(starts, append=n) > 1))
    return rep_idx, stats

"""Property-based tests on the meta dispatch stream and warning semantics."""

from hypothesis import given, settings, strategies as st

from repro.meta.stacked import MetaStream
from repro.mining.rules import Rule
from repro.predictors.statistical import StatisticalPredictor
from repro.ras.events import RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.store import EventStore
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.timeutil import HOUR, MINUTE
from tests.oracles import reference_detect, ruleset_of

# A small vocabulary of catalog labels: items 0..4 non-fatal, 5..6 fatal
# (both NETWORK, the statistical method's trigger category below).
ITEM_NAMES = ["nodeMapFileError", "nodeMapError", "appReadError",
              "coredumpCreated", "appChildKillInfo", "torusFailure", "rtsFailure"]
FATAL_ITEMS = frozenset({5, 6})

RULES = ruleset_of(
    [
        Rule(body=frozenset({0, 1}), heads=frozenset({5}), confidence=0.9,
             support=0.1, support_count=5),
        Rule(body=frozenset({2}), heads=frozenset({6}), confidence=0.6,
             support=0.1, support_count=5),
    ],
    ITEM_NAMES,
    FATAL_ITEMS,
)


def _severity(item: int) -> Severity:
    return Severity.FAILURE if item in FATAL_ITEMS else Severity.WARNING


def _stat(confidence: float = 0.55) -> StatisticalPredictor:
    sp = StatisticalPredictor(window=HOUR, lead=5 * MINUTE)
    sp.follow_probability = {MainCategory.NETWORK: confidence}
    sp.trigger_categories = (MainCategory.NETWORK,)
    sp._fitted = True
    return sp


def _stream(confidence: float = 0.55) -> MetaStream:
    return MetaStream(RULES, _stat(confidence), prediction_window=30 * MINUTE)


def _store(stream) -> EventStore:
    """A classified store of ``(time, item)`` pairs.

    Labels are interned in order of first appearance, not in ``RULES``'
    item order, so every run also exercises the by-name item mapping.
    """
    return EventStore.from_events_in_memory(
        RasEvent(
            time=t,
            location="R00-M0-N00-C00",
            facility=Facility.KERNEL,
            severity=_severity(item),
            entry_data=ITEM_NAMES[item],
            subcategory=ITEM_NAMES[item],
        )
        for t, item in stream
    )


def _detect_each(ms: MetaStream, stream):
    """Yield ``(time, warnings)`` per event, one-row chunks of the batch loop."""
    store = _store(stream)
    for (t, _), chunk in zip(stream, store.iter_chunks(1)):
        yield t, ms.detect(chunk)


@st.composite
def event_streams(draw, max_gap=20 * MINUTE):
    n = draw(st.integers(min_value=0, max_value=60))
    t = 0
    out = []
    for _ in range(n):
        # Zero gaps drawn on their own too: runs of equal timestamps.
        t += draw(st.just(0) | st.integers(min_value=0, max_value=max_gap))
        item = draw(st.integers(min_value=0, max_value=6))
        out.append((t, item))
    return out


@given(event_streams())
@settings(max_examples=80, deadline=None)
def test_stream_warnings_well_formed(stream):
    ms = _stream()
    prev_issue = None
    for t, raised in _detect_each(ms, stream):
        for w in raised:
            assert w.issued_at == t
            assert w.horizon_start > w.issued_at
            assert w.horizon_end >= w.horizon_start
            assert 0.0 <= w.confidence <= 1.0
            if prev_issue is not None:
                assert w.issued_at >= prev_issue
            prev_issue = w.issued_at


@given(event_streams())
@settings(max_examples=80, deadline=None)
def test_stream_dedup_invariant(stream):
    """No two warnings with the same detail overlap in issue-vs-horizon."""
    ms = _stream()
    active: dict[str, int] = {}
    for _, raised in _detect_each(ms, stream):
        for w in raised:
            end = active.get(w.detail)
            assert end is None or w.issued_at > end, (
                "re-issued while active: " + w.detail
            )
            active[w.detail] = w.horizon_end


@given(event_streams())
@settings(max_examples=60, deadline=None)
def test_stream_counts_match_emissions(stream):
    ms = _stream()
    emitted = 0
    for _, raised in _detect_each(ms, stream):
        emitted += len(raised)
    assert sum(ms.dispatch_counts.values()) == emitted


@given(event_streams(), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_stream_prefix_consistency(stream, cut_div):
    """Feeding a prefix then the rest equals feeding everything (no hidden
    dependence on call boundaries)."""
    def run(chunks):
        ms = _stream()
        out = []
        for chunk in chunks:
            out.extend(ms.detect(_store(chunk)))
        return [(w.issued_at, w.detail) for w in out]

    cut = len(stream) // cut_div
    assert run([stream]) == run([stream[:cut], stream[cut:]])


@given(
    event_streams(max_gap=10 * MINUTE),
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=12),
    st.sampled_from([0.3, 0.55, 0.75, 0.95]),
)
@settings(max_examples=120, deadline=None)
def test_batch_loop_matches_per_event_oracle_on_rules(stream, sizes, confidence):
    """The batch loop under random chunkings == the per-event §3.3 oracle.

    Rule dispatch on the ``RULES`` fixture, with chunks cycling through
    ``sizes`` (1-row chunks are the shrink target) and gaps that include
    runs of equal timestamps; the statistical confidence is drawn from
    both sides of the rules' 0.6 and 0.9, so case 3 goes either way.
    """
    store = _store(stream)
    expected = reference_detect(_stream(confidence), store)

    ms = _stream(confidence)
    actual = []
    lo, k = 0, 0
    while lo < len(store):
        hi = min(lo + sizes[k % len(sizes)], len(store))
        actual.extend(ms.detect(store.select(slice(lo, hi))))
        lo, k = hi, k + 1
    assert actual == expected


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_online_detector_matches_batch_on_random_streams(stream):
    """Per-event oracle == MetaLearner.predict == chunked online session over
    catalog-classified text, for arbitrary event mixes (not generated logs)."""
    from repro.meta.stacked import MetaLearner
    from repro.online import OnlineSession
    from repro.predictors.rulebased import RuleBasedPredictor
    from repro.taxonomy.subcategories import CATALOG

    # Map synthetic items onto real catalog subcategories.
    mapping = [sc for sc in CATALOG if not sc.is_fatal][:5] + [
        sc for sc in CATALOG if sc.is_fatal
    ][:2]
    events = [
        RasEvent(time=t + 1, location="R00-M0-N00-C00", facility=sc.facility,
                 severity=sc.severity, entry_data=sc.templates[0])
        for t, sc in ((t, mapping[item]) for t, item in stream)
    ]
    store = TaxonomyClassifier().classify_store(EventStore.from_events(events))

    rb = RuleBasedPredictor(prediction_window=30 * MINUTE)
    rb.restore_state(ruleset_of([], list(store.subcat_table), frozenset()), 0.0)
    meta = MetaLearner.from_state(
        prediction_window=30 * MINUTE,
        statistical=_stat(),
        rulebased=rb,
    )

    session = OnlineSession(meta)
    online = [w for chunk in store.iter_chunks(3) for w in session.process_store(chunk)]
    key = [(w.issued_at, w.detail) for w in meta.predict(store)]
    assert key == [(w.issued_at, w.detail) for w in online]
    assert key == [
        (w.issued_at, w.detail) for w in reference_detect(meta.stream(), store)
    ]

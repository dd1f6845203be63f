"""Properties of the daemon's columnar ingest path.

The wire decoder, the batch admission of a stream channel and the chunk
store built per worker chunk are each checked against a one-event-at-a-time
reference (:mod:`tests.oracles`, and the per-event classifier scan).
"""

from __future__ import annotations

import asyncio
import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ras.backend import COLUMN_NAMES, TABLE_NAMES
from repro.ras.fields import Facility, Severity
from repro.ras.store import EventBatch, EventStore
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_BATCH_EVENTS,
    ProtocolError,
    decode_events,
    decode_request,
    encode_frame,
    event_to_dict,
)
from repro.serve.streams import StreamChannel
from repro.taxonomy.classifier import OTHER_FALLBACK, TaxonomyClassifier
from repro.taxonomy.subcategories import CATALOG
from tests.conftest import make_event
from tests.oracles import ReferenceOffers, reference_event_from_dict

ENTRIES = [sc.pattern for sc in CATALOG[:12]] + [
    "no catalog phrase here", "DMA Transfer Error: descriptor retried",
]
LOCATIONS = ["R00-M0-N00-C00", "R01-M1-N04-C32", "R02-M0-S", "R12-M1-L3"]


def _cased(names):
    """Enum names in upper, lower and capitalized spellings."""
    return st.sampled_from(names).flatmap(
        lambda n: st.sampled_from([n, n.lower(), n.capitalize()])
    )


#: Per field: (valid values, every malformation the wire sees).
FIELDS = {
    "time": (st.integers(0, 2**40), st.sampled_from([True, False, -1, -7, 1.5, 0.0, "12", None])),
    "location": (st.sampled_from(LOCATIONS), st.sampled_from(["", 7, None])),
    "entry_data": (st.sampled_from(ENTRIES), st.sampled_from(["", None, 3])),
    "facility": (_cased([f.name for f in Facility]), st.sampled_from(["COFFEE", "", 1])),
    "severity": (_cased([s.name for s in Severity]), st.sampled_from(["MEH", "", 4])),
    "job_id": (st.integers(-1, 10**6), st.sampled_from(["none", True, 2.5, None])),
    "event_type": (st.sampled_from(["RAS", "ENV"]), st.sampled_from([9, None])),
    "subcategory": (
        st.sampled_from([sc.name for sc in CATALOG[:6]] + [OTHER_FALLBACK, "client-label"])
        | st.none(),
        st.sampled_from([3, ["x"]]),
    ),
}
REQUIRED = ("time", "location", "entry_data", "facility", "severity")
_BASE = event_to_dict(make_event())


@st.composite
def payloads(draw, valid_only=False):
    """One event payload: optional fields may be missing, values malformed."""
    if not valid_only and draw(st.integers(0, 30)) == 0:
        return draw(st.sampled_from([[1, 2], "event", None, 5]))
    # One field in `odds` is malformed: none, a few, or many per payload.
    odds = 0 if valid_only else draw(st.sampled_from([0, 12, 3]))
    doc = {}
    for key, (valid, invalid) in FIELDS.items():
        if key not in REQUIRED and draw(st.booleans()):
            continue  # optional field left out
        if key in REQUIRED and not valid_only and draw(st.integers(0, 40)) == 0:
            continue  # required field missing
        if odds and draw(st.integers(1, odds)) == 1:
            doc[key] = draw(invalid)
        else:
            doc[key] = draw(valid)
    return doc


def _rows(events):
    """Every attribute of every event, typed (enum members, not ints)."""
    return [
        tuple((type(v), v) for v in (
            e.time, e.location, e.facility, e.severity, e.entry_data,
            e.job_id, e.event_type, e.subcategory,
        ))
        for e in events
    ]


def _oracle(payload):
    try:
        return _rows([reference_event_from_dict(doc) for doc in payload]), None
    except ProtocolError as exc:
        return None, str(exc)


def _decoded(decode):
    try:
        return _rows(decode().events()), None
    except ProtocolError as exc:
        return None, str(exc)


# ------------------------------------------------------------- wire decode


@given(st.lists(payloads(), max_size=12))
@settings(max_examples=300, deadline=None)
def test_decode_events_matches_per_event_oracle(payload):
    want = _oracle(payload)
    assert _decoded(lambda: decode_events(payload)) == want
    frame = encode_frame({"op": "batch", "stream": "s", "events": payload})
    assert _decoded(lambda: decode_request(frame).batch) == want


#: Malformed values per field, including ones that pass the type check
#: and fail later (unknown enum names, negative times).
BAD = [
    ("time", None), ("time", True), ("time", -1), ("time", 2.0),
    ("location", ""), ("location", 7), ("entry_data", None),
    ("facility", 1), ("facility", "coffee"), ("severity", 4), ("severity", "meh"),
    ("job_id", "none"), ("job_id", False), ("event_type", 9), ("subcategory", 3),
]


def test_first_malformation_wins_like_the_oracle():
    """With two fields malformed, the decoder reports the oracle's one."""
    for (key_a, bad_a), (key_b, bad_b) in itertools.permutations(BAD, 2):
        if key_a == key_b:
            continue
        payload = [_BASE, {**_BASE, key_a: bad_a, key_b: bad_b}]
        want = _oracle(payload)
        assert want[0] is None
        assert _decoded(lambda: decode_events(payload)) == want, (key_a, key_b)


#: Whole-row faults next to BAD's field faults: a required field left
#: out, and a payload that is not an object (``None`` key).
_MISSING = object()
ROW_FAULTS = BAD + [(key, _MISSING) for key in REQUIRED] + [(None, 5)]


def _faulty(key, bad):
    if key is None:
        return bad
    if bad is _MISSING:
        return {k: v for k, v in _BASE.items() if k != key}
    return {**_BASE, key: bad}


def test_earliest_malformed_row_wins_whatever_its_field():
    """Malformed events in two rows: the earlier row's error is raised, also
    when the later row's bad field is one the column checks look at first
    (row 5 a bad ``time``, row 2 a bad ``severity``)."""
    for fault_a, fault_b in itertools.product(ROW_FAULTS, repeat=2):
        payload = [_BASE] * 8
        payload[2], payload[5] = _faulty(*fault_a), _faulty(*fault_b)
        want = _oracle(payload)
        assert want[0] is None and want == _oracle([payload[2]])
        assert _decoded(lambda: decode_events(payload)) == want, (fault_a, fault_b)


def test_mixed_spellings_decode_to_one_member(monkeypatch):
    spellings = ["KERNEL", "kernel", "Kernel", "kErNeL"]
    payload = [
        {**_BASE, "facility": f, "severity": s}
        for f, s in zip(spellings, ["FATAL", "fatal", "Fatal", "fAtAl"])
    ]
    batch = decode_events(payload)
    assert batch.facilities == [Facility.KERNEL] * 4
    assert batch.severities == [Severity.FATAL] * 4
    assert _decoded(lambda: batch) == _oracle(payload)
    # Upper-case names, which senders emit, are column lookups: the
    # per-event checks, which only name a malformed event, never run on them.
    calls, check_rows = [], protocol._check_rows
    monkeypatch.setattr(
        protocol, "_check_rows", lambda rows: calls.append(len(rows)) or check_rows(rows)
    )
    assert decode_events(payload[:1]) == batch[:1]
    assert calls == []
    assert decode_events(payload) == batch  # other casings take the per-event path
    assert calls == [4]
    # An upper-case facility column beside another casing of severity.
    row = {**_BASE, "facility": "KERNEL", "severity": "fatal"}
    assert decode_events([row]) == batch[:1]


class _Text(str):
    pass


class _Count(int):
    pass


def test_subclass_values_from_python_callers_decode_like_the_oracle():
    """Python callers may pass dict, int and str subclasses, which the
    exact-type column checks refuse; the per-event checks then accept them
    as the oracle does (a mapping's ``__missing__`` supplies no field)."""
    without_time = {k: v for k, v in _BASE.items() if k != "time"}
    for payload in (
        [_BASE, collections.OrderedDict(_BASE)],
        [_BASE, collections.defaultdict(int, without_time)],
        [{**_BASE, "time": _Count(5), "job_id": _Count(2)}],
        [{**_BASE, "time": _Count(-5)}],
        [{**_BASE, "location": _Text("R07-M1"), "facility": _Text("kernel")}],
        [{**_BASE, "subcategory": _Text("client-label"), "event_type": _Text("")}],
    ):
        assert _decoded(lambda: decode_events(payload)) == _oracle(payload)


@given(st.lists(payloads(valid_only=True), min_size=1, max_size=8), st.data())
@settings(max_examples=10, deadline=None)
def test_full_size_batches_decode_like_the_oracle(base, data):
    """4096 events decode; one bad event anywhere raises the oracle's error."""
    payload = (base * MAX_BATCH_EVENTS)[:MAX_BATCH_EVENTS]
    request = decode_request(encode_frame({"op": "batch", "stream": "s", "events": payload}))
    assert _rows(request.events) == _oracle(payload)[0]

    bad = data.draw(st.integers(0, MAX_BATCH_EVENTS - 1))
    key = data.draw(st.sampled_from(REQUIRED))
    broken = payload[:bad] + [{**payload[bad], key: None}] + payload[bad + 1:]
    want = _oracle(broken)
    assert want[0] is None
    assert _decoded(lambda: decode_events(broken)) == want

    with pytest.raises(ProtocolError, match="batch exceeds"):
        decode_request(encode_frame(
            {"op": "batch", "stream": "s", "events": payload + payload[:1]}
        ))


# ------------------------------------------------------------- chunk store


def _per_event_store(clf, events):
    """The chunk store the daemon built before: one classify scan per event."""
    def label(entry):
        sc = clf.classify_entry(entry)
        return sc.name if sc is not None else OTHER_FALLBACK

    return EventStore.from_events_in_memory(
        ev if ev.subcategory is not None else ev.with_subcategory(label(ev.entry_data))
        for ev in events
    )


@given(st.lists(payloads(valid_only=True), max_size=40))
@settings(max_examples=150, deadline=None)
def test_chunk_store_labels_each_entry_like_a_per_event_scan(payload):
    clf = TaxonomyClassifier()
    batch = decode_events(payload)
    got = EventStore.from_batch(batch, clf.classify)
    want = _per_event_store(TaxonomyClassifier(), batch.events())
    for name in COLUMN_NAMES:
        np.testing.assert_array_equal(got.column(name), want.column(name))
    for name in TABLE_NAMES:
        assert got.table(name).strings == want.table(name).strings


# ------------------------------------------------------------- admission


@pytest.fixture(scope="module")
def meta(fitted_predictors):
    return fitted_predictors["meta"]


@st.composite
def frames(draw, last_time):
    """A frame whose times mostly rise from ``last_time``, with out-of-order points."""
    t = max(last_time, 1000)
    out = []
    for _ in range(draw(st.integers(0, 25))):
        t = max(t + draw(st.integers(0, 5) | st.integers(-4, -1)), 0)
        out.append(make_event(time=t, location=draw(st.sampled_from(LOCATIONS))))
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_batch_offer_matches_per_event_loop(meta, data):
    bound = data.draw(st.integers(1, 40), label="bound")
    channel = StreamChannel(
        "s", meta, queue_bound=bound, chunk_events=data.draw(st.integers(1, 16))
    )
    ref = ReferenceOffers(bound)
    for _ in range(data.draw(st.integers(1, 10))):
        step = data.draw(st.sampled_from(["offer", "offer", "offer", "take", "close"]))
        if step == "take":
            taken = channel._take().events()
            ref.depth -= len(taken)
            assert _rows(taken) == _rows(ref.queued[: len(taken)])
            del ref.queued[: len(taken)]
        elif step == "close":
            asyncio.run(channel.close())  # no worker: the queue stays put
            ref.closing = True
        else:
            events = data.draw(frames(ref.stats.last_time))
            assert channel.offer(EventBatch.from_events(events)) == ref.offer(events)
        assert channel.stats == ref.stats
        assert channel.queue_depth == ref.depth
    queued = [ev for batch in channel._batches for ev in batch.events()]
    assert _rows(queued) == _rows(ref.queued)

"""Store labels reach the model's rule items by name, whatever the intern order.

Rule items are ids into the training store's label table; a store built from
events (``EventStore.from_events_in_memory``, as the daemon and the lifecycle
retrain window build theirs) interns labels in arrival order instead of the
classifier's.  Every detection entry point must give the classified baseline.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import ThreePhasePredictor
from repro.meta.stacked import MetaLearner
from repro.online import OnlineSession
from repro.ras.store import EventStore
from repro.synth.generator import LogGenerator
from repro.synth.profiles import anl_profile


def _reinterned(store: EventStore) -> EventStore:
    return EventStore.from_events_in_memory(store.to_events())


def _key(warnings):
    return [
        (w.issued_at, w.horizon_start, w.horizon_end, w.confidence, w.detail)
        for w in warnings
    ]


@pytest.fixture(scope="module")
def split():
    log = LogGenerator(anl_profile(), scale=0.1, seed=11).generate()
    events = ThreePhasePredictor().preprocess(log.raw).events
    cut = int(len(events) * 0.6)
    return events.select(slice(0, cut)), events.select(slice(cut, len(events)))


@pytest.fixture(scope="module")
def baseline(split):
    train, test = split
    meta = MetaLearner().fit(train)
    return _key(meta.predict(test)), _key(meta.rulebased.predict(test))


@pytest.mark.parametrize(
    "reintern_train, reintern_test",
    [(False, True), (True, False), (True, True)],
    ids=["test-reinterned", "train-reinterned", "both-reinterned"],
)
def test_every_entry_point_maps_labels_by_name(
    split, baseline, reintern_train, reintern_test
):
    train, test = split
    meta_expected, rule_expected = baseline
    assert meta_expected and rule_expected  # non-vacuous
    if reintern_train:
        train = _reinterned(train)
        assert train.subcat_table != split[0].subcat_table
    if reintern_test:
        test = _reinterned(test)
    meta = MetaLearner().fit(train)

    assert _key(meta.predict(test)) == meta_expected
    assert _key(OnlineSession(meta).process_store(test)) == meta_expected
    assert _key(meta.rulebased.predict(test)) == rule_expected

"""Tests for repro.predictors.base."""

import pytest

from repro.predictors.base import (
    FailureWarning,
    NotFittedError,
    Predictor,
    dedup_warnings,
    merge_warning_streams,
)
from repro.ras.store import EventStore


def w(issued, start=None, end=None, conf=0.5, source="s", detail="d"):
    start = issued + 1 if start is None else start
    end = start + 100 if end is None else end
    return FailureWarning(
        issued_at=issued, horizon_start=start, horizon_end=end,
        confidence=conf, source=source, detail=detail,
    )


def test_warning_validation():
    with pytest.raises(ValueError):
        w(100, start=50)  # retroactive horizon
    with pytest.raises(ValueError):
        w(100, start=101, end=100)
    with pytest.raises(ValueError):
        w(100, conf=1.5)


def test_warning_covers():
    warning = w(0, start=10, end=20)
    assert warning.covers(10) and warning.covers(20)
    assert not warning.covers(9) and not warning.covers(21)
    assert warning.horizon_end - warning.horizon_start == 10


def test_dedup_suppresses_active_duplicates():
    a = w(100, detail="r1")
    b = w(150, detail="r1")  # still inside a's horizon
    c = w(300, detail="r1")  # after a's horizon (ends at 201)
    kept = dedup_warnings([a, b, c])
    assert kept == [a, c]


def test_dedup_distinguishes_details():
    a = w(100, detail="r1")
    b = w(100, detail="r2")
    assert len(dedup_warnings([a, b])) == 2


def test_dedup_distinguishes_sources():
    a = w(100, source="rule")
    b = w(100, source="statistical")
    assert len(dedup_warnings([a, b])) == 2


def test_merge_warning_streams_ordered():
    s1 = [w(100), w(300)]
    s2 = [w(200)]
    merged = merge_warning_streams(s1, s2)
    assert [x.issued_at for x in merged] == [100, 200, 300]


def test_unfitted_predictor_raises():
    class P(Predictor):
        name = "p"

        def fit(self, events):
            self._fitted = True
            return self

        def predict(self, events):
            self._check_fitted()
            return []

    p = P()
    with pytest.raises(NotFittedError):
        p.predict(EventStore.empty())
    p.fit(EventStore.empty())
    assert p.predict(EventStore.empty()) == []
    assert p.is_fitted

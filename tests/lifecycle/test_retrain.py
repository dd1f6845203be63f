"""Tests for repro.lifecycle.retrain (policy, off-hot-path fit, retrainer)."""

from __future__ import annotations

import pytest

from repro.cache import store_fingerprint
from repro.core.serialize import model_to_dict
from repro.evaluation.spec import PredictorSpec
from repro.lifecycle import ModelRegistry, Retrainer, RetrainPolicy, fit_spec


# --------------------------------------------------------------- policy


def test_policy_count_trigger_and_reset():
    policy = RetrainPolicy(every_events=100, cooldown_events=0)
    policy.observe_events(99)
    assert not policy.decide()
    policy.observe_events(1)
    decision = policy.decide()
    assert decision and decision.reason == "count"
    policy.mark_retrained()
    assert not policy.decide()
    assert policy.retrains == 1


def test_policy_drift_trigger_outranks_count():
    policy = RetrainPolicy(every_events=10, on_drift=True, cooldown_events=0)
    policy.observe_events(50)
    assert policy.decide(drifted=True).reason == "drift"
    assert policy.decide(drifted=False).reason == "count"


def test_policy_drift_ignored_unless_enabled():
    policy = RetrainPolicy(on_drift=False)
    policy.observe_events(10_000)
    assert not policy.decide(drifted=True)


def test_policy_cooldown_suppresses_thrash():
    policy = RetrainPolicy(on_drift=True, cooldown_events=100)
    # First retrain may happen immediately (no cooldown before any retrain).
    assert policy.decide(drifted=True)
    policy.mark_retrained()
    policy.observe_events(99)
    assert not policy.decide(drifted=True)  # inside cooldown
    policy.observe_events(1)
    assert policy.decide(drifted=True)  # cooldown elapsed


def test_policy_validates_parameters():
    with pytest.raises(ValueError):
        RetrainPolicy(every_events=0)
    with pytest.raises(ValueError):
        RetrainPolicy(cooldown_events=-1)
    with pytest.raises(ValueError):
        RetrainPolicy().observe_events(-5)


# ------------------------------------------------------------- fit_spec


@pytest.fixture(scope="module")
def train_window(anl_events):
    return anl_events.select(slice(0, int(len(anl_events) * 0.6)))


def test_fit_spec_serial_produces_fitted_predictor(train_window):
    predictor, cache_hit = fit_spec(PredictorSpec.of("meta"), train_window)
    assert predictor.is_fitted and cache_hit is False


def test_fit_spec_worker_matches_serial(train_window):
    """The off-hot-path (worker process) fit is bit-identical to in-process."""
    spec = PredictorSpec.of("meta")
    serial, _ = fit_spec(spec, train_window, jobs=1)
    shipped, _ = fit_spec(spec, train_window, jobs=2)
    assert model_to_dict(shipped) == model_to_dict(serial)


def test_fit_spec_uses_artifact_cache(train_window, tmp_path):
    spec = PredictorSpec.of("meta")
    cache_dir = tmp_path / "cache"
    first, hit1 = fit_spec(spec, train_window, cache_dir=cache_dir)
    second, hit2 = fit_spec(spec, train_window, cache_dir=cache_dir)
    assert (hit1, hit2) == (False, True)
    assert model_to_dict(second) == model_to_dict(first)


# ------------------------------------------------------------ retrainer


def test_retrainer_window_trims_to_newest(anl_events, tmp_path):
    retrainer = Retrainer(
        PredictorSpec.of("meta"), ModelRegistry(tmp_path), window_events=100
    )
    assert retrainer.window is None and retrainer.window_size == 0
    retrainer.extend(anl_events.select(slice(0, 80)))
    assert retrainer.window_size == 80
    retrainer.extend(anl_events.select(slice(80, 160)))
    assert retrainer.window_size == 100
    # The window holds the *newest* 100 events.
    assert retrainer.window.times[-1] == anl_events.times[159]
    assert retrainer.window.times[0] == anl_events.times[60]


def _eager_window(window, chunk, window_events):
    """The window trimmed after every chunk (the buffered window's oracle)."""
    if len(chunk) == 0:
        return window
    merged = chunk if window is None else window.concat(chunk)
    if len(merged) > window_events:
        merged = merged.select(slice(len(merged) - window_events, len(merged)))
    return merged


@pytest.mark.parametrize("window_events", [7, 100, 10_000])
@pytest.mark.parametrize("read_every", [1, 3])
def test_buffered_window_equals_per_chunk_trim(
    anl_events, sdsc_events, tmp_path, window_events, read_every
):
    """However often the window is read, it is the store that trimming
    after every chunk builds: empty chunks, chunks larger than the
    window, chunks that go back in time and chunks with their own tables."""
    retrainer = Retrainer(
        PredictorSpec.of("meta"), ModelRegistry(tmp_path), window_events=window_events
    )
    chunks = [
        anl_events.select(slice(lo, hi))
        for lo, hi in [(0, 5), (5, 5), (5, 69), (69, 300), (300, 301), (150, 170),
                       (301, 301), (301, 340), (340, 600)]
    ]
    chunks[5:5] = [sdsc_events.select(slice(0, 40))]
    eager = None
    for i, chunk in enumerate(chunks, 1):
        retrainer.extend(chunk)
        eager = _eager_window(eager, chunk, window_events)
        if i % read_every == 0 or i == len(chunks):
            assert store_fingerprint(retrainer.window) == store_fingerprint(eager)
            assert retrainer.window_size == len(eager)


def test_retrainer_empty_window_is_an_error(tmp_path):
    retrainer = Retrainer(PredictorSpec.of("meta"), ModelRegistry(tmp_path))
    with pytest.raises(ValueError, match="window is empty"):
        retrainer.retrain()


def test_retrainer_registers_snapshot_with_lineage(anl_events, tmp_path):
    registry = ModelRegistry(tmp_path)
    spec = PredictorSpec.of("meta")
    retrainer = Retrainer(spec, registry, window_events=300, seed=5)
    retrainer.extend(anl_events.select(slice(0, 250)))
    snap1, predictor1 = retrainer.retrain(note="first")
    assert predictor1.is_fitted
    assert snap1.spec == spec and snap1.train_events == 250
    assert registry.resolve("latest") == snap1.snapshot_id

    retrainer.extend(anl_events.select(slice(250, len(anl_events))))
    snap2, _ = retrainer.retrain(parent=snap1.snapshot_id, note="second")
    chain = registry.lineage(snap2.snapshot_id)
    assert [s.note for s in chain] == ["second", "first"]
    assert retrainer.retrain_count == 2


def test_retrainer_seeding_is_deterministic(anl_events, tmp_path):
    """Same seed, same window, same retrain index -> same snapshot id."""
    spec = PredictorSpec.of("meta")

    def run(root):
        registry = ModelRegistry(root)
        retrainer = Retrainer(spec, registry, window_events=200, seed=42)
        retrainer.extend(anl_events.select(slice(0, 200)))
        return retrainer.retrain()[0].snapshot_id

    assert run(tmp_path / "a") == run(tmp_path / "b")


# --------------------------------------------------- incremental retrains


def test_retrainer_incremental_matches_from_scratch(anl_events, tmp_path):
    """O(delta) refits must register byte-identical snapshots."""
    spec = PredictorSpec.of("meta")

    def run(root, incremental):
        registry = ModelRegistry(root)
        retrainer = Retrainer(
            spec, registry, window_events=250, seed=3, incremental=incremental
        )
        ids = []
        for start in range(0, 500, 125):
            retrainer.extend(anl_events.select(slice(start, start + 125)))
            ids.append(retrainer.retrain()[0].snapshot_id)
        return ids

    plain = run(tmp_path / "plain", False)
    fast = run(tmp_path / "fast", True)
    assert plain == fast  # snapshot ids are content hashes of learned state


def test_retrainer_incremental_disabled_has_no_fitter(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
    retrainer = Retrainer(PredictorSpec.of("meta"), ModelRegistry(tmp_path))
    assert retrainer.fitter is None


def test_retrainer_unsupported_kind_skips_fitter(tmp_path):
    retrainer = Retrainer(
        PredictorSpec.statistical(), ModelRegistry(tmp_path), incremental=True
    )
    assert retrainer.fitter is None

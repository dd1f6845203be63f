"""Tests for repro.lifecycle.registry (the versioned model store)."""

from __future__ import annotations

import json

import pytest

from repro.cache import store_fingerprint
from repro.cache.fingerprint import combine_tokens
from repro.core.pipeline import ThreePhasePredictor
from repro.core.serialize import model_to_dict, registered_kinds
from repro.evaluation.spec import PredictorSpec
from repro.lifecycle import ModelRegistry, RegistryError
from repro.lifecycle.registry import SNAPSHOT_VERSION
from repro.meta.stacked import MetaLearner

#: Id of the golden fit in the encoding test (the session's ANL meta-learner
#: with a parent, fingerprint and note); any change to ids shows up here.
GOLDEN_SNAPSHOT_ID = (
    "fea62a0de977f4e3bd8c1c7ea49ef40a8e72c7822935a31db9c043be1b06fb6c"
)


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "reg")


# ------------------------------------------------------------- save/load


@pytest.mark.parametrize("kind", sorted(registered_kinds()))
def test_every_codec_kind_snapshots_and_reloads(kind, fitted_predictors, registry):
    predictor = fitted_predictors[kind]
    snap = registry.save(predictor, spec=PredictorSpec.of(kind))
    assert snap.kind == kind
    loaded = registry.load(snap.snapshot_id)
    # Registry storage is the codec round trip (see
    # tests/properties/test_codec_properties.py); identity at the document
    # level implies identity of behaviour.
    assert model_to_dict(loaded) == model_to_dict(predictor)


def test_save_is_idempotent_and_content_addressed(fitted_predictors, registry):
    meta = fitted_predictors["meta"]
    first = registry.save(meta, spec=PredictorSpec.of("meta"))
    second = registry.save(meta, spec=PredictorSpec.of("meta"))
    assert first.snapshot_id == second.snapshot_id
    assert second.seq == first.seq  # no new entry was created
    assert len(registry.snapshot_ids()) == 1


def test_snapshot_id_tracks_provenance(fitted_predictors, registry, anl_events):
    meta = fitted_predictors["meta"]
    spec = PredictorSpec.of("meta")
    plain = registry.save(meta, spec=spec)
    with_store = registry.save(
        meta, spec=spec, store_fingerprint=store_fingerprint(anl_events)
    )
    # Same bytes, different training provenance -> different identity.
    assert plain.snapshot_id != with_store.snapshot_id
    assert with_store.seq == plain.seq + 1


def test_seq_is_monotonic_without_wall_clock(fitted_predictors, registry):
    seqs = [
        registry.save(fitted_predictors[kind], spec=PredictorSpec.of(kind)).seq
        for kind in sorted(registered_kinds())
    ]
    assert seqs == sorted(seqs)
    assert seqs[0] == 1
    stored = registry.list()
    assert [s.seq for s in stored] == seqs


def test_manifest_preserves_spec_and_fit_token(fitted_predictors, registry):
    spec = PredictorSpec.of("meta")
    snap = registry.save(
        fitted_predictors["meta"], spec=spec, train_events=123, note="first"
    )
    got = registry.get(snap.snapshot_id)
    assert got.spec == spec
    assert got.fit_token == spec.fit_token()
    assert got.train_events == 123
    assert got.note == "first"


def test_load_meta_unwraps_three_phase(fitted_predictors, registry):
    registry.save(fitted_predictors["three-phase"])
    meta = registry.load_meta("latest")
    assert isinstance(meta, MetaLearner) and meta.is_fitted

    registry.save(fitted_predictors["statistical"])
    with pytest.raises(RegistryError, match="not a servable"):
        registry.load_meta("latest")


def test_loaded_three_phase_type(fitted_predictors, registry):
    snap = registry.save(fitted_predictors["three-phase"])
    assert isinstance(registry.load(snap.snapshot_id), ThreePhasePredictor)


# ------------------------------------------------------------ resolution


def test_resolve_tag_prefix_and_latest(fitted_predictors, registry):
    snap = registry.save(
        fitted_predictors["meta"], spec=PredictorSpec.of("meta"), tags=("prod",)
    )
    sid = snap.snapshot_id
    assert registry.resolve("latest") == sid
    assert registry.resolve("prod") == sid
    assert registry.resolve(sid) == sid
    assert registry.resolve(sid[:8]) == sid


def test_resolving_a_tag_parses_no_document(fitted_predictors, registry, monkeypatch):
    snap = registry.save(fitted_predictors["meta"], tags=("prod",))

    def no_parse(*args, **kwargs):
        raise AssertionError("resolve parsed a snapshot document")

    monkeypatch.setattr(registry, "_read_doc", no_parse)
    monkeypatch.setattr(json, "load", no_parse)
    monkeypatch.setattr(json, "loads", no_parse)
    assert registry.resolve("latest") == snap.snapshot_id
    assert registry.resolve("prod") == snap.snapshot_id


def test_dangling_tag_is_an_error(fitted_predictors, registry):
    snap = registry.save(fitted_predictors["meta"], tags=("prod",))
    registry._snapshot_path(snap.snapshot_id).unlink()
    with pytest.raises(RegistryError, match="missing snapshot"):
        registry.resolve("prod")
    with pytest.raises(RegistryError, match="missing snapshot"):
        registry.resolve("latest")


def test_tag_to_corrupt_snapshot_resolves_but_fails_to_load(fitted_predictors, registry):
    snap = registry.save(fitted_predictors["meta"], tags=("prod",))
    registry._snapshot_path(snap.snapshot_id).write_text("{not json", encoding="utf-8")
    assert registry.resolve("prod") == snap.snapshot_id
    with pytest.raises(RegistryError, match="unreadable"):
        registry.load("prod")
    with pytest.raises(RegistryError):
        registry.load("latest")


def test_resolve_rejects_unknown_short_and_ambiguous(fitted_predictors, registry):
    with pytest.raises(RegistryError, match="unknown registry ref"):
        registry.resolve("nosuchtag")
    snap = registry.save(fitted_predictors["meta"])
    # Too-short prefixes never resolve, even when unambiguous.
    with pytest.raises(RegistryError, match="unknown registry ref"):
        registry.resolve(snap.snapshot_id[:4])
    with pytest.raises(RegistryError, match="empty"):
        registry.resolve("")


def test_latest_is_registry_managed(fitted_predictors, registry):
    snap = registry.save(fitted_predictors["meta"])
    with pytest.raises(RegistryError, match="registry-managed"):
        registry.tag(snap.snapshot_id, "latest")


def test_lineage_chain(fitted_predictors, registry):
    meta = fitted_predictors["meta"]
    spec = PredictorSpec.of("meta")
    a = registry.save(meta, spec=spec, note="a")
    b = registry.save(
        meta, spec=spec, parent=a.snapshot_id, note="b",
        store_fingerprint="f" * 64,
    )
    c = registry.save(
        meta, spec=spec, parent=b.snapshot_id, note="c",
        store_fingerprint="e" * 64,
    )
    chain = registry.lineage(c.snapshot_id)
    assert [s.note for s in chain] == ["c", "b", "a"]
    assert chain[0].parent == b.snapshot_id


# ----------------------------------------------------- corruption, prune


def test_corrupt_snapshot_reads_as_absent(fitted_predictors, registry):
    snap = registry.save(fitted_predictors["meta"])
    path = registry._snapshot_path(snap.snapshot_id)
    path.write_text("{ truncated", encoding="utf-8")
    assert registry.list() == []
    with pytest.raises(RegistryError):
        registry.load(snap.snapshot_id)


def test_malformed_manifest_is_an_error(fitted_predictors, registry):
    snap = registry.save(fitted_predictors["meta"])
    path = registry._snapshot_path(snap.snapshot_id)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["manifest"]["seq"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(RegistryError, match="malformed snapshot manifest"):
        registry.get(snap.snapshot_id)


def test_prune_keeps_newest_and_ref_targets(fitted_predictors, registry):
    spec = PredictorSpec.of("meta")
    meta = fitted_predictors["meta"]
    snaps = [
        registry.save(meta, spec=spec, store_fingerprint=c * 64)
        for c in "abcd"
    ]
    registry.tag(snaps[0].snapshot_id, "pinned")
    removed = registry.prune(keep=1)
    assert removed == 2  # b and c go; d is newest, a is pinned
    left = {s.snapshot_id for s in registry.list()}
    assert left == {snaps[0].snapshot_id, snaps[-1].snapshot_id}
    # latest still resolves after pruning.
    assert registry.resolve("latest") == snaps[-1].snapshot_id


def test_no_temp_files_left_behind(fitted_predictors, registry):
    registry.save(fitted_predictors["meta"], tags=("prod",))
    stray = [
        p for p in registry.root.rglob("*") if p.name.startswith(".tmp-")
    ]
    assert stray == []


def test_snapshot_bytes_and_id_follow_the_documented_encoding(
    fitted_predictors, registry, anl_events
):
    """Snapshot files are the compact sort_keys JSON of the whole document,
    and the id hashes the same model JSON; neither depends on how save()
    assembles them."""
    meta = fitted_predictors["meta"]
    spec = PredictorSpec.of("meta")
    fingerprint = store_fingerprint(anl_events)
    parent = registry.save(meta, spec=spec)
    snap = registry.save(
        meta, spec=spec, store_fingerprint=fingerprint,
        parent=parent.snapshot_id, train_events=len(anl_events), note="golden",
    )
    model_doc = model_to_dict(meta)
    expected = json.dumps(
        {
            "snapshot_version": SNAPSHOT_VERSION,
            "manifest": snap.manifest(),
            "model": model_doc,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    path = registry._snapshot_path(snap.snapshot_id)
    assert path.read_bytes() == expected.encode("utf-8")
    assert snap.snapshot_id == combine_tokens(
        model=json.dumps(model_doc, sort_keys=True, separators=(",", ":")),
        store=fingerprint,
        fit=spec.fit_token(),
        parent=parent.snapshot_id,
        version=SNAPSHOT_VERSION,
    )
    assert snap.snapshot_id == GOLDEN_SNAPSHOT_ID


@pytest.mark.parametrize("miner", ["apriori", "fpgrowth"])
def test_manifest_with_retired_miner_param_still_loads(
    fitted_predictors, registry, miner
):
    """Manifests written while a miner choice existed carry it in the spec
    params; they load as the current spec and its model."""
    meta = fitted_predictors["meta"]
    current = registry.save(meta, spec=PredictorSpec.of("meta"))
    legacy_spec = current.spec.as_manifest()
    legacy_spec["params"]["miner"] = miner
    _rewrite_manifest(registry, current.snapshot_id, spec=legacy_spec)

    loaded = ModelRegistry(registry.root).get(current.snapshot_id)
    assert loaded.spec == PredictorSpec.of("meta")
    assert loaded.fit_token == PredictorSpec.of("meta").fit_token()
    model = registry.load(current.snapshot_id)
    assert model_to_dict(model) == model_to_dict(meta)


# ------------------------------------------- two instances on one root


@pytest.fixture
def pair(tmp_path):
    """Two registries on one root: A caches manifests, B changes files."""
    root = tmp_path / "shared"
    return ModelRegistry(root), ModelRegistry(root)


def _save(registry, fitted_predictors, tag, parent=None):
    return registry.save(
        fitted_predictors["meta"],
        spec=PredictorSpec.of("meta"),
        store_fingerprint=tag * 64,
        parent=parent,
        note=tag,
    )


def _rewrite_manifest(registry, snapshot_id, *, atomic=True, **changes):
    path = registry._snapshot_path(snapshot_id)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["manifest"].update(changes)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if atomic:
        registry._atomic_write(path, text)
    else:
        path.write_text(text, encoding="utf-8")


def test_saves_by_another_instance_are_listed_and_advance_seq(
    fitted_predictors, pair
):
    a, b = pair
    first = _save(a, fitted_predictors, "a")
    assert [s.seq for s in a.list()] == [1]
    second = _save(b, fitted_predictors, "b")
    assert second.seq == 2
    assert [s.snapshot_id for s in a.list()] == [
        first.snapshot_id, second.snapshot_id,
    ]
    assert _save(a, fitted_predictors, "c").seq == 3
    assert [s.note for s in b.list()] == ["a", "b", "c"]


def test_save_reads_nothing_back(fitted_predictors, registry, monkeypatch):
    """save() parses no snapshot file, its own included, and resolves a full
    parent id without listing the snapshot directory; the manifests it
    caches are what a fresh instance parses from the files."""
    first = _save(registry, fitted_predictors, "a")

    def no_read(snapshot_id):
        raise AssertionError(f"read snapshot {snapshot_id[:12]} back")

    def no_glob():
        raise AssertionError("listed the snapshots to resolve a full id")

    monkeypatch.setattr(registry, "_read_doc", no_read)
    second = _save(registry, fitted_predictors, "b", parent=first.snapshot_id)
    cached = registry.list()
    assert [s.seq for s in cached] == [1, 2]
    monkeypatch.setattr(registry, "snapshot_ids", no_glob)
    assert registry.resolve(second.snapshot_id) == second.snapshot_id
    monkeypatch.undo()
    assert cached == ModelRegistry(registry.root).list()


def test_full_id_of_a_missing_snapshot_is_unknown(registry):
    with pytest.raises(RegistryError, match="unknown registry ref"):
        registry.resolve("ab" * 32)


def test_prune_by_another_instance_is_seen(fitted_predictors, pair):
    a, b = pair
    snaps = []
    for tag in "abcd":
        parent = snaps[-1].snapshot_id if snaps else None
        snaps.append(_save(a, fitted_predictors, tag, parent=parent))
    assert len(a.list()) == 4
    assert len(a.lineage(snaps[-1].snapshot_id)) == 4
    assert b.prune(keep=2) == 2
    assert [s.note for s in a.lineage(snaps[-1].snapshot_id)] == ["d", "c"]
    with pytest.raises(RegistryError):
        a.get(snaps[0].snapshot_id)
    assert [s.note for s in a.list()] == ["c", "d"]
    assert a.prune(keep=2) == 0
    assert _save(a, fitted_predictors, "e").seq == 5


def test_rewrites_by_another_instance_are_reparsed(fitted_predictors, pair):
    a, b = pair
    first = _save(a, fitted_predictors, "a")
    second = _save(a, fitted_predictors, "b", parent=first.snapshot_id)
    assert [s.seq for s in a.list()] == [1, 2]
    # Atomic replace (new inode), as a registry writer does it.
    _rewrite_manifest(b, first.snapshot_id, seq=7, note="renumbered")
    assert [s.note for s in a.list()] == ["b", "renumbered"]
    assert a.get(first.snapshot_id).seq == 7
    assert [s.note for s in a.lineage(second.snapshot_id)] == ["b", "renumbered"]
    assert _save(a, fitted_predictors, "c").seq == 8
    # In-place rewrite of a different length (same inode).
    _rewrite_manifest(b, second.snapshot_id, atomic=False, note="edited in place")
    assert a.get(second.snapshot_id).note == "edited in place"
    assert [s.note for s in a.lineage(second.snapshot_id)] == [
        "edited in place", "renumbered",
    ]


def test_corruption_by_another_instance_reads_as_absent(fitted_predictors, pair):
    a, b = pair
    first = _save(a, fitted_predictors, "a")
    second = _save(a, fitted_predictors, "b", parent=first.snapshot_id)
    third = _save(a, fitted_predictors, "c", parent=second.snapshot_id)
    assert len(a.list()) == 3 and len(a.lineage(third.snapshot_id)) == 3
    path = b._snapshot_path(second.snapshot_id)
    good = path.read_bytes()
    path.write_text("{ truncated", encoding="utf-8")
    assert [s.note for s in a.list()] == ["a", "c"]
    assert [s.note for s in a.lineage(third.snapshot_id)] == ["c"]
    with pytest.raises(RegistryError, match="unreadable"):
        a.get(second.snapshot_id)
    # The newest readable snapshot decides the next seq, as without a cache.
    b._snapshot_path(third.snapshot_id).write_text("[]", encoding="utf-8")
    assert a.list()[-1].note == "a"
    assert _save(a, fitted_predictors, "d").seq == 2
    # Repairing the file brings the snapshot back.
    path.write_bytes(good)
    assert sorted((s.seq, s.note) for s in a.list()) == [
        (1, "a"), (2, "b"), (2, "d"),
    ]
    assert [s.note for s in a.lineage(second.snapshot_id)] == ["b", "a"]


def test_stray_non_snapshot_files_read_as_absent(fitted_predictors, registry):
    """A writer's temp file beside a snapshot (mid-write, or left by a killed
    process) and any other non-hex ``*.json`` name no snapshot: listing,
    the next seq, pruning and lineage all skip them."""
    first = _save(registry, fitted_predictors, "a")
    second = _save(registry, fitted_predictors, "b", parent=first.snapshot_id)
    shard = registry._snapshot_path(second.snapshot_id).parent
    stray_text = registry._snapshot_path(second.snapshot_id).read_text(
        encoding="utf-8"
    )
    (shard / f".tmp-123-{second.snapshot_id}.json").write_text(
        stray_text, encoding="utf-8"
    )
    (shard / "x.json").write_text(stray_text, encoding="utf-8")
    assert [s.note for s in registry.list()] == ["a", "b"]
    third = _save(registry, fitted_predictors, "c", parent=second.snapshot_id)
    assert third.seq == 3
    assert [s.note for s in registry.lineage(third.snapshot_id)] == [
        "c", "b", "a",
    ]
    assert registry.prune(keep=1) == 2
    assert [s.note for s in registry.list()] == ["c"]
    # A malformed, non-hex parent pointer cuts the chain.
    _rewrite_manifest(registry, third.snapshot_id, parent="not-a-snapshot")
    assert [s.note for s in registry.lineage(third.snapshot_id)] == ["c"]

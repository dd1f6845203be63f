"""Content-addressed, versioned model registry.

A production deployment retrains continuously (see :mod:`repro.lifecycle`),
so fitted models need the same discipline code gets: immutable versioned
snapshots, stable identity, lineage, and garbage collection.
:class:`ModelRegistry` provides exactly that on top of the conventions the
artifact cache established (:mod:`repro.cache`): snapshots are JSON
documents stored under their content hash with atomic same-directory
``os.replace`` writes, corruption reads as absence, and eviction is
explicit.

Layout under the registry root::

    snapshots/<id[:2]>/<id>.json   # manifest + full model document
    refs/latest                    # snapshot id of the newest save
    refs/<tag>                     # user-assigned names (atomic writes)

A snapshot **id** is the SHA-256 combination of the model document hash,
the training-store fingerprint, the spec's fit token and the parent id —
identical (model, provenance) pairs collide on purpose, so re-registering
the same fit is idempotent.  The **manifest** records provenance: the
:func:`~repro.cache.store_fingerprint` of the training store, the
:class:`~repro.evaluation.spec.PredictorSpec` (kind + params, fit token
included) when the model was spec-built, the lineage ``parent`` pointer,
and a registry-local monotonically increasing ``seq`` (no wall clock —
ordering must replay deterministically).

``refs`` resolve like git's: :meth:`ModelRegistry.resolve` accepts a full
snapshot id, a unique id prefix (>= 6 hex chars), a tag name, or
``"latest"``.  :meth:`ModelRegistry.prune` keeps the newest N snapshots
plus everything a ref points at (and the lineage chain of survivors stays
intact because parents are ids, not files).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.cache.fingerprint import combine_tokens
from repro.core.serialize import (
    SerializationError,
    model_from_dict,
    model_to_dict,
)
from repro.core.pipeline import ThreePhasePredictor
from repro.evaluation.spec import PredictorSpec, SpecError
from repro.meta.stacked import MetaLearner
from repro.obs import get_registry
from repro.predictors.base import Predictor

#: Schema version of the snapshot document (manifest + model).
SNAPSHOT_VERSION = 1

#: Minimum hex chars accepted for abbreviated snapshot-id resolution.
MIN_PREFIX = 6

#: Length of a full snapshot id (a SHA-256 hex digest).
ID_LENGTH = 64

_HEX = set("0123456789abcdef")


def _dumps(doc: Any) -> str:
    """The compact sorted-key JSON every snapshot is written in."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _stat_key(st: os.stat_result) -> tuple[int, int, int]:
    """What identifies one version of a snapshot file (see _manifest)."""
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class RegistryError(ValueError):
    """Bad ref, malformed snapshot, or conflicting registry operation."""


@dataclass(frozen=True)
class ModelSnapshot:
    """One immutable registry entry (manifest only — the model stays on disk).

    ``spec`` is ``None`` for models imported from plain files without a
    declarative spec; ``fit_token`` is then also ``None``.
    """

    snapshot_id: str
    kind: str
    seq: int
    parent: Optional[str]
    store_fingerprint: Optional[str]
    spec: Optional[PredictorSpec]
    fit_token: Optional[str]
    train_events: Optional[int]
    note: str = ""

    def manifest(self) -> dict[str, Any]:
        """The JSON-ready manifest block persisted inside the snapshot."""
        return {
            "kind": self.kind,
            "seq": self.seq,
            "parent": self.parent,
            "store_fingerprint": self.store_fingerprint,
            "spec": self.spec.as_manifest() if self.spec else None,
            "fit_token": self.fit_token,
            "train_events": self.train_events,
            "note": self.note,
        }


def _snapshot_from_doc(snapshot_id: str, doc: dict) -> ModelSnapshot:
    try:
        manifest = doc["manifest"]
        spec_doc = manifest.get("spec")
        spec = PredictorSpec.from_dict(spec_doc) if spec_doc else None
        parent = manifest.get("parent")
        fingerprint = manifest.get("store_fingerprint")
        train_events = manifest.get("train_events")
        return ModelSnapshot(
            snapshot_id=snapshot_id,
            kind=str(manifest["kind"]),
            seq=int(manifest["seq"]),
            parent=str(parent) if parent else None,
            store_fingerprint=str(fingerprint) if fingerprint else None,
            spec=spec,
            fit_token=spec.fit_token() if spec else None,
            train_events=int(train_events) if train_events is not None else None,
            note=str(manifest.get("note", "")),
        )
    except (KeyError, TypeError, ValueError, SpecError) as exc:
        raise RegistryError(
            f"malformed snapshot manifest {snapshot_id[:12]}: {exc}"
        ) from exc


class ModelRegistry:
    """A directory of versioned predictor snapshots with git-like refs.

    Safe for concurrent writers at the file level: snapshot and ref writes
    go through same-directory temp files and ``os.replace`` (the artifact
    cache's atomicity convention), and ids are content-addressed so two
    processes registering the same fit converge on one file.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.snapshot_dir = self.root / "snapshots"
        self.ref_dir = self.root / "refs"
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        self.ref_dir.mkdir(parents=True, exist_ok=True)
        # snapshot id -> (file stat key, parsed manifest); see _manifest().
        self._manifests: dict[str, tuple[tuple[int, int, int], ModelSnapshot]] = {}

    # ------------------------------------------------------------------ #
    # Paths and low-level IO
    # ------------------------------------------------------------------ #

    def _snapshot_path(self, snapshot_id: str) -> Path:
        if not snapshot_id or any(c not in _HEX for c in snapshot_id):
            raise RegistryError(
                f"snapshot ids are lowercase hex digests, got {snapshot_id!r}"
            )
        return self.snapshot_dir / snapshot_id[:2] / f"{snapshot_id}.json"

    def _ref_path(self, name: str) -> Path:
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise RegistryError(f"invalid ref name {name!r}")
        return self.ref_dir / name

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".tmp-{os.getpid()}-{path.name}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass

    def _read_doc(self, snapshot_id: str) -> Optional[dict]:
        try:
            with open(self._snapshot_path(snapshot_id), encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError("snapshot root is not an object")
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError, OSError):
            # Corruption-as-absence, the artifact-cache convention.
            get_registry().counter("lifecycle.registry_corrupt")
            return None
        return doc

    def _manifest(self, snapshot_id: str) -> Optional[ModelSnapshot]:
        """The parsed manifest of one snapshot file, ``None`` if absent/corrupt.

        Parsed manifests are cached per id and revalidated by the file's
        ``(st_ino, st_size, st_mtime_ns)``, so only new or rewritten files
        are parsed again while changes made by other processes (or other
        registry instances) stay visible.  The stat is taken before the
        read: a file replaced in between is re-parsed next time.  An id
        that is not hex (a writer's ``.tmp-*`` file, a malformed parent
        pointer) names no snapshot and reads as absent too.
        """
        try:
            st = os.stat(self._snapshot_path(snapshot_id))
        except (OSError, RegistryError):
            self._manifests.pop(snapshot_id, None)
            return None
        key = _stat_key(st)
        cached = self._manifests.get(snapshot_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        self._manifests.pop(snapshot_id, None)
        doc = self._read_doc(snapshot_id)
        if doc is None:
            return None
        snap = _snapshot_from_doc(snapshot_id, doc)
        self._manifests[snapshot_id] = (key, snap)
        return snap

    # ------------------------------------------------------------------ #
    # Enumeration and resolution
    # ------------------------------------------------------------------ #

    def snapshot_ids(self) -> list[str]:
        """Every stored snapshot id, sorted."""
        return sorted(
            p.stem for p in self.snapshot_dir.glob("[0-9a-f][0-9a-f]/*.json")
        )

    def list(self) -> list[ModelSnapshot]:
        """All snapshots, oldest first (by ``seq``, id as tie-break)."""
        ids = self.snapshot_ids()
        for gone in self._manifests.keys() - set(ids):
            del self._manifests[gone]
        out = [snap for snap in map(self._manifest, ids) if snap is not None]
        out.sort(key=lambda s: (s.seq, s.snapshot_id))
        return out

    def tags(self) -> dict[str, str]:
        """``tag name -> snapshot id`` for every ref (including latest)."""
        out: dict[str, str] = {}
        for path in sorted(self.ref_dir.iterdir()):
            if not path.is_file() or path.name.startswith("."):
                continue
            try:
                out[path.name] = path.read_text(encoding="utf-8").strip()
            except OSError:
                continue
        return out

    def resolve(self, ref: str) -> str:
        """Snapshot id for a ref: tag, full id, or unique id prefix.

        Tags win over ids (like git); abbreviated ids must be at least
        :data:`MIN_PREFIX` chars and unambiguous.  :class:`RegistryError`
        if nothing matches.  A tag's target is checked by ``stat`` only: a
        present but corrupt snapshot resolves, and :meth:`load` /
        :meth:`get` report it.
        """
        if not ref:
            raise RegistryError("empty registry ref")
        ref_path = self.ref_dir / ref
        if "/" not in ref and not ref.startswith(".") and ref_path.is_file():
            target = ref_path.read_text(encoding="utf-8").strip()
            if not self._snapshot_path(target).is_file():
                raise RegistryError(
                    f"ref {ref!r} points at missing snapshot {target[:12]}"
                )
            return target
        if all(c in _HEX for c in ref) and len(ref) >= MIN_PREFIX:
            if len(ref) == ID_LENGTH:
                if self._snapshot_path(ref).is_file():
                    return ref
                matches = []
            else:
                matches = [s for s in self.snapshot_ids() if s.startswith(ref)]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise RegistryError(
                    f"ambiguous snapshot prefix {ref!r} "
                    f"({len(matches)} matches)"
                )
        known = ", ".join(sorted(self.tags())) or "none"
        raise RegistryError(
            f"unknown registry ref {ref!r} (tags: {known}; "
            f"snapshots: {len(self.snapshot_ids())})"
        )

    def get(self, ref: str) -> ModelSnapshot:
        """The manifest of the snapshot ``ref`` resolves to."""
        snapshot_id = self.resolve(ref)
        snap = self._manifest(snapshot_id)
        if snap is None:
            raise RegistryError(f"snapshot {snapshot_id[:12]} is unreadable")
        return snap

    def lineage(self, ref: str) -> list[ModelSnapshot]:
        """The snapshot and its ancestors, newest first, broken links cut."""
        out: list[ModelSnapshot] = []
        seen: set[str] = set()
        current: Optional[str] = self.resolve(ref)
        while current and current not in seen:
            seen.add(current)
            snap = self._manifest(current)
            if snap is None:
                break
            out.append(snap)
            current = snap.parent
        return out

    # ------------------------------------------------------------------ #
    # Save / load
    # ------------------------------------------------------------------ #

    def save(
        self,
        predictor: Union[ThreePhasePredictor, MetaLearner, Predictor],
        *,
        spec: Optional[PredictorSpec] = None,
        store_fingerprint: Optional[str] = None,
        parent: Optional[str] = None,
        train_events: Optional[int] = None,
        note: str = "",
        tags: tuple[str, ...] = (),
    ) -> ModelSnapshot:
        """Register a fitted predictor; returns the (possibly existing) snapshot.

        The id is the content hash of (model document, fingerprint, fit
        token, parent) — saving the same fit twice is a no-op that returns
        the existing snapshot.  ``refs/latest`` always moves to the saved
        snapshot; ``tags`` adds named refs on top.
        """
        model_doc = model_to_dict(predictor)
        parent_id = self.resolve(parent) if parent else None
        fit_token = spec.fit_token() if spec else None
        model_json = _dumps(model_doc)
        snapshot_id = combine_tokens(
            model=model_json,
            store=store_fingerprint,
            fit=fit_token,
            parent=parent_id,
            version=SNAPSHOT_VERSION,
        )
        snap = self._manifest(snapshot_id)
        if snap is None:
            seq = max((s.seq for s in self.list()), default=0) + 1
            snap = ModelSnapshot(
                snapshot_id=snapshot_id,
                kind=str(model_doc["kind"]),
                seq=seq,
                parent=parent_id,
                store_fingerprint=store_fingerprint,
                spec=spec,
                fit_token=fit_token,
                train_events=train_events,
                note=note,
            )
            # The compact sorted-key JSON of {"snapshot_version", "manifest",
            # "model"}, with the model text serialized once above spliced in
            # ("manifest" < "model" < "snapshot_version").
            path = self._snapshot_path(snapshot_id)
            manifest_json = _dumps(snap.manifest())
            self._atomic_write(
                path,
                f'{{"manifest":{manifest_json},"model":{model_json},'
                f'"snapshot_version":{SNAPSHOT_VERSION}}}',
            )
            # Cache the manifest as a read of this file would parse it, so
            # list() need not read the model document back.
            try:
                self._manifests[snapshot_id] = (
                    _stat_key(os.stat(path)),
                    _snapshot_from_doc(
                        snapshot_id, {"manifest": json.loads(manifest_json)}
                    ),
                )
            except OSError:
                pass
            get_registry().counter("lifecycle.snapshots_saved")
        self._atomic_write(self._ref_path("latest"), snapshot_id + "\n")
        for tag in tags:
            self.tag(snapshot_id, tag)
        return snap

    def load(
        self, ref: str
    ) -> Union[ThreePhasePredictor, MetaLearner, Predictor]:
        """Rebuild the fitted predictor stored under ``ref``."""
        snapshot_id = self.resolve(ref)
        doc = self._read_doc(snapshot_id)
        if doc is None:
            raise RegistryError(f"snapshot {snapshot_id[:12]} is unreadable")
        model_doc = doc.get("model")
        if not isinstance(model_doc, dict):
            raise RegistryError(
                f"snapshot {snapshot_id[:12]} has no model document"
            )
        try:
            return model_from_dict(model_doc)
        except SerializationError as exc:
            raise RegistryError(
                f"snapshot {snapshot_id[:12]} failed to decode: {exc}"
            ) from exc

    def load_meta(self, ref: str) -> MetaLearner:
        """The fitted meta-learner under ``ref`` (three-phase unwrapped).

        The serving engine's swap path wants a :class:`MetaLearner`; kinds
        that do not embed one are a :class:`RegistryError`.
        """
        model = self.load(ref)
        if isinstance(model, ThreePhasePredictor):
            return model.meta
        if isinstance(model, MetaLearner):
            return model
        raise RegistryError(
            f"snapshot {self.resolve(ref)[:12]} holds a "
            f"{type(model).__name__}, not a servable meta-learner"
        )

    # ------------------------------------------------------------------ #
    # Refs and maintenance
    # ------------------------------------------------------------------ #

    def tag(self, ref: str, name: str) -> str:
        """Point ``refs/<name>`` at the snapshot ``ref`` resolves to."""
        if name == "latest":
            raise RegistryError("'latest' is registry-managed; pick another tag")
        snapshot_id = self.resolve(ref)
        self._atomic_write(self._ref_path(name), snapshot_id + "\n")
        return snapshot_id

    def prune(self, keep: int) -> int:
        """Drop all but the newest ``keep`` snapshots; refs are always kept.

        Returns the number removed.  "Newest" is by manifest ``seq``; every
        snapshot a ref points at survives regardless of age, so a pinned
        rollback target cannot be collected.
        """
        if keep < 0:
            raise RegistryError("keep must be >= 0")
        snapshots = self.list()
        protected = set(self.tags().values())
        keepers = {s.snapshot_id for s in snapshots[len(snapshots) - keep :]}
        removed = 0
        for snap in snapshots:
            if snap.snapshot_id in keepers or snap.snapshot_id in protected:
                continue
            try:
                self._snapshot_path(snap.snapshot_id).unlink()
                removed += 1
            except OSError:
                continue
        if removed:
            get_registry().counter("lifecycle.snapshots_pruned", removed)
        return removed

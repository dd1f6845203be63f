"""Persistence of trained predictors.

An online deployment trains on the archived log and then runs for weeks; the
trained model must survive daemon restarts without re-mining.  Everything a
fitted :class:`~repro.core.pipeline.ThreePhasePredictor` (or bare
:class:`~repro.meta.stacked.MetaLearner`) learned is small and structured —
rule sets, follow-up probabilities, configuration — so models serialize to a
versioned JSON document.

Dispatch is a *codec registry*: each predictor kind registers a
:class:`PredictorCodec` (full-document encode/decode plus learned-state-only
encode/apply, the latter backing the artifact cache in :mod:`repro.cache`).
New predictor kinds call :func:`register_codec` instead of growing if/elif
chains in ``save_model``/``load_model``.  Restoring always goes through the
predictors' public ``from_state``/``restore_state``/``mark_fitted`` paths —
no private attribute pokes.

Round-trip guarantee (tested): a loaded predictor produces byte-identical
warnings to the one that was saved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Callable, TextIO, Union

from repro.core.config import PredictorConfig
from repro.core.pipeline import ThreePhasePredictor
from repro.meta.stacked import MetaLearner
from repro.mining.rules import RuleSet
from repro.predictors.base import Predictor
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import StatisticalPredictor
from repro.taxonomy.categories import MainCategory

#: Schema version of the on-disk format.
FORMAT_VERSION = 1


class SerializationError(ValueError):
    """Document malformed or of an unsupported version."""


# ---------------------------------------------------------------------- #
# Component encoders / decoders
# ---------------------------------------------------------------------- #


def ruleset_to_dict(ruleset: RuleSet) -> dict:
    """Encode a rule set (item names are stored; ids are table indices).

    Written from the rule set's columns; item lists come out ascending.
    """
    return {
        "item_names": list(ruleset.item_names),
        "fatal_items": sorted(ruleset.fatal_items),
        "rules": [
            {
                "body": list(body),
                "heads": list(heads),
                "confidence": confidence,
                "support": support,
                "support_count": count,
            }
            for body, heads, confidence, support, count in zip(
                ruleset.body_items,
                ruleset.head_items,
                ruleset.confidence,
                ruleset.support,
                ruleset.support_count,
            )
        ],
    }


def ruleset_from_dict(doc: dict) -> RuleSet:
    """Decode a rule set; validates item-id ranges and that no rule has an
    empty body or head."""
    try:
        names = list(doc["item_names"])
        rules = doc["rules"]
        bodies = [sorted({int(i) for i in rd["body"]}) for rd in rules]
        heads = [sorted({int(i) for i in rd["heads"]}) for rd in rules]
        for items in chain(bodies, heads):
            if not items:
                raise SerializationError("rule with an empty body or head")
            if not 0 <= items[0] <= items[-1] < len(names):
                raise SerializationError("rule item id out of range")
        return RuleSet(
            bodies,
            heads,
            [float(rd["confidence"]) for rd in rules],
            [float(rd["support"]) for rd in rules],
            [int(rd["support_count"]) for rd in rules],
            names,
            frozenset(int(i) for i in doc["fatal_items"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed ruleset document: {exc}") from exc


def statistical_to_dict(sp: StatisticalPredictor) -> dict:
    """Encode a fitted statistical predictor."""
    return {
        "window": sp.window,
        "lead": sp.lead,
        "trigger_threshold": sp.trigger_threshold,
        "deduplicate": sp.deduplicate,
        **_statistical_state_to_dict(sp),
    }


def _statistical_state_to_dict(sp: StatisticalPredictor) -> dict:
    """Learned-state-only encoding (artifact-cache payload)."""
    return {
        "follow_probability": {
            c.value: p for c, p in sp.follow_probability.items()
        },
        "trigger_categories": [c.value for c in sp.trigger_categories],
    }


def _statistical_apply_state(
    sp: StatisticalPredictor, doc: dict
) -> StatisticalPredictor:
    """Install learned state from a document onto an unfitted instance."""
    try:
        return sp.restore_state(
            follow_probability={
                MainCategory(k): float(v)
                for k, v in doc["follow_probability"].items()
            },
            trigger_categories=tuple(
                MainCategory(v) for v in doc["trigger_categories"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed statistical document: {exc}"
        ) from exc


def statistical_from_dict(doc: dict) -> StatisticalPredictor:
    """Decode into a *fitted* statistical predictor."""
    try:
        sp = StatisticalPredictor(
            window=float(doc["window"]),
            lead=float(doc["lead"]),
            trigger_threshold=float(doc["trigger_threshold"]),
            deduplicate=bool(doc["deduplicate"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed statistical document: {exc}"
        ) from exc
    return _statistical_apply_state(sp, doc)


def rulebased_to_dict(rb: RuleBasedPredictor) -> dict:
    """Encode a fitted rule-based predictor."""
    if rb.ruleset is None:
        raise SerializationError("rule-based predictor is not fitted")
    return {
        "rule_window": rb.rule_window,
        "prediction_window": rb.prediction_window,
        "min_support": rb.min_support,
        "min_confidence": rb.min_confidence,
        "max_len": rb.max_len,
        **_rulebased_state_to_dict(rb),
    }


def _rulebased_state_to_dict(rb: RuleBasedPredictor) -> dict:
    """Learned-state-only encoding (artifact-cache payload)."""
    if rb.ruleset is None:
        raise SerializationError("rule-based predictor is not fitted")
    return {
        "no_precursor_fraction": rb.no_precursor_fraction,
        "ruleset": ruleset_to_dict(rb.ruleset),
    }


def _rulebased_apply_state(
    rb: RuleBasedPredictor, doc: dict
) -> RuleBasedPredictor:
    """Install a mined rule set from a document onto an unfitted instance."""
    try:
        return rb.restore_state(
            ruleset=ruleset_from_dict(doc["ruleset"]),
            no_precursor_fraction=float(doc["no_precursor_fraction"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed rulebased document: {exc}") from exc


def rulebased_from_dict(doc: dict) -> RuleBasedPredictor:
    """Decode into a *fitted* rule-based predictor.

    Older documents also carry a ``"miner"`` choice; every miner mined the
    same rules, so the key is ignored.
    """
    try:
        rb = RuleBasedPredictor(
            rule_window=float(doc["rule_window"]),
            prediction_window=float(doc["prediction_window"]),
            min_support=float(doc["min_support"]),
            min_confidence=float(doc["min_confidence"]),
            max_len=int(doc["max_len"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed rulebased document: {exc}") from exc
    return _rulebased_apply_state(rb, doc)


def meta_to_dict(meta: MetaLearner) -> dict:
    """Encode a fitted meta-learner (both bases inline)."""
    if not meta.is_fitted:
        raise SerializationError("meta-learner is not fitted")
    return {
        "prediction_window": meta.prediction_window,
        "statistical": statistical_to_dict(meta.statistical),
        "rulebased": rulebased_to_dict(meta.rulebased),
    }


def _meta_state_to_dict(meta: MetaLearner) -> dict:
    """Learned-state-only encoding of both bases."""
    if not meta.is_fitted:
        raise SerializationError("meta-learner is not fitted")
    return {
        "statistical": _statistical_state_to_dict(meta.statistical),
        "rulebased": _rulebased_state_to_dict(meta.rulebased),
    }


def _meta_apply_state(meta: MetaLearner, doc: dict) -> MetaLearner:
    """Install learned state onto both embedded bases."""
    try:
        _statistical_apply_state(meta.statistical, doc["statistical"])
        _rulebased_apply_state(meta.rulebased, doc["rulebased"])
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed meta document: {exc}") from exc
    meta.mark_fitted()
    return meta


def meta_from_dict(doc: dict) -> MetaLearner:
    """Decode into a *fitted* meta-learner."""
    try:
        return MetaLearner.from_state(
            prediction_window=float(doc["prediction_window"]),
            statistical=statistical_from_dict(doc["statistical"]),
            rulebased=rulebased_from_dict(doc["rulebased"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed meta document: {exc}") from exc


# ---------------------------------------------------------------------- #
# Codec registry
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class PredictorCodec:
    """Encode/decode pair for one predictor kind.

    ``encode``/``decode`` carry the *full* document body (constructor
    parameters plus learned state; what ``save_model`` writes).
    ``encode_state``/``apply_state`` carry the learned state only — the
    artifact cache stores that payload and re-applies it to a freshly
    spec-built (possibly differently parameterized) predictor.
    """

    kind: str
    cls: type
    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]
    encode_state: Callable[[Any], dict]
    apply_state: Callable[[Any, dict], Any]


_CODECS: dict[str, PredictorCodec] = {}


def register_codec(codec: PredictorCodec) -> PredictorCodec:
    """Register a predictor codec; the kind must be new."""
    if codec.kind in _CODECS:
        raise ValueError(f"duplicate codec kind {codec.kind!r}")
    _CODECS[codec.kind] = codec
    return codec


def registered_kinds() -> tuple[str, ...]:
    """All registered codec kinds, sorted."""
    return tuple(sorted(_CODECS))


def codec_for_kind(kind: str) -> PredictorCodec:
    """Codec registered under ``kind``; :class:`SerializationError` if none."""
    try:
        return _CODECS[kind]
    except KeyError:
        raise SerializationError(f"unknown model kind: {kind!r}") from None


def codec_for(predictor: Any) -> PredictorCodec:
    """Codec whose class matches ``predictor`` (exact type wins)."""
    for codec in _CODECS.values():
        if type(predictor) is codec.cls:
            return codec
    for codec in _CODECS.values():
        if isinstance(predictor, codec.cls):
            return codec
    raise SerializationError(f"cannot serialize {type(predictor).__name__}")


def _three_phase_encode(predictor: ThreePhasePredictor) -> dict:
    return {
        "config": {
            k: getattr(predictor.config, k)
            for k in (
                "compression_threshold", "temporal_key_mode",
                "rule_window", "min_support", "min_confidence",
                "max_rule_len", "statistical_lead",
                "statistical_window", "trigger_threshold",
                "prediction_window",
            )
        },
        "meta": meta_to_dict(predictor.meta),
    }


def _three_phase_decode(doc: dict) -> ThreePhasePredictor:
    try:
        # Older documents carry the retired "miner" choice; ignore it.
        config = PredictorConfig(**{
            k: v for k, v in doc["config"].items() if k != "miner"
        })
        meta = meta_from_dict(doc["meta"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(
            f"malformed three-phase document: {exc}"
        ) from exc
    return ThreePhasePredictor.from_state(config, meta)


def _three_phase_state(predictor: ThreePhasePredictor) -> dict:
    return _meta_state_to_dict(predictor.meta)


def _three_phase_apply_state(
    predictor: ThreePhasePredictor, doc: dict
) -> ThreePhasePredictor:
    _meta_apply_state(predictor.meta, doc)
    predictor.report.rules_mined = len(predictor.rulebased.ruleset or [])
    predictor.report.trigger_categories = tuple(
        c.value for c in predictor.statistical.trigger_categories
    )
    predictor.mark_fitted()
    return predictor


register_codec(PredictorCodec(
    kind="statistical",
    cls=StatisticalPredictor,
    encode=statistical_to_dict,
    decode=statistical_from_dict,
    encode_state=_statistical_state_to_dict,
    apply_state=_statistical_apply_state,
))
register_codec(PredictorCodec(
    kind="rule",
    cls=RuleBasedPredictor,
    encode=rulebased_to_dict,
    decode=rulebased_from_dict,
    encode_state=_rulebased_state_to_dict,
    apply_state=_rulebased_apply_state,
))
register_codec(PredictorCodec(
    kind="meta",
    cls=MetaLearner,
    encode=lambda meta: {"meta": meta_to_dict(meta)},
    decode=lambda doc: meta_from_dict(doc["meta"]),
    encode_state=_meta_state_to_dict,
    apply_state=_meta_apply_state,
))
register_codec(PredictorCodec(
    kind="three-phase",
    cls=ThreePhasePredictor,
    encode=_three_phase_encode,
    decode=_three_phase_decode,
    encode_state=_three_phase_state,
    apply_state=_three_phase_apply_state,
))


# ---------------------------------------------------------------------- #
# Learned-state payloads (artifact cache)
# ---------------------------------------------------------------------- #


def learned_state_to_dict(predictor: Predictor) -> dict:
    """Versioned learned-state-only document for a fitted predictor."""
    codec = codec_for(predictor)
    return {
        "format_version": FORMAT_VERSION,
        "kind": codec.kind,
        "state": codec.encode_state(predictor),
    }


def apply_learned_state(predictor: Predictor, doc: dict) -> Predictor:
    """Apply a :func:`learned_state_to_dict` document to a fresh predictor.

    The target must be of the document's kind; its constructor parameters
    may differ from the saving predictor's (the cache exploits this: a rule
    set mined once serves every prediction window).
    """
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported model format version: {version!r}"
        )
    codec = codec_for(predictor)
    if doc.get("kind") != codec.kind:
        raise SerializationError(
            f"state document kind {doc.get('kind')!r} does not match "
            f"predictor kind {codec.kind!r}"
        )
    state = doc.get("state")
    if not isinstance(state, dict):
        raise SerializationError("state document has no 'state' object")
    return codec.apply_state(predictor, state)


# ---------------------------------------------------------------------- #
# Top-level save / load
# ---------------------------------------------------------------------- #


def model_to_dict(
    predictor: Union[ThreePhasePredictor, MetaLearner, Predictor],
) -> dict:
    """The versioned full-model document (what :func:`save_model` writes).

    The in-memory form backs both file persistence and the lifecycle model
    registry (:mod:`repro.lifecycle`), whose snapshot ids are content hashes
    of exactly this document.
    """
    codec = codec_for(predictor)
    return {
        "format_version": FORMAT_VERSION,
        "kind": codec.kind,
        **codec.encode(predictor),
    }


def model_from_dict(
    doc: dict,
) -> Union[ThreePhasePredictor, MetaLearner, Predictor]:
    """Decode a :func:`model_to_dict` document into a fitted predictor."""
    if not isinstance(doc, dict):
        raise SerializationError("model document root is not an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported model format version: {version!r}"
        )
    return codec_for_kind(doc.get("kind")).decode(doc)


def save_model(
    predictor: Union[ThreePhasePredictor, MetaLearner, Predictor],
    target: Union[str, Path, TextIO],
) -> None:
    """Serialize a fitted predictor to JSON (codec-registry dispatch)."""
    doc = model_to_dict(predictor)
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    else:
        json.dump(doc, target, indent=1)


def load_model(
    source: Union[str, Path, TextIO],
) -> Union[ThreePhasePredictor, MetaLearner, Predictor]:
    """Deserialize a predictor saved by :func:`save_model`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = json.load(source)
    return model_from_dict(doc)

"""Declarative, picklable predictor specifications.

:class:`PredictorSpec` is the only predictor description the evaluation
entry points accept: a frozen dataclass of ``(kind, parameters)`` that

- **builds** a fresh unfitted predictor (:meth:`PredictorSpec.build`),
- **pickles** (plain data, no closures — workers rebuild predictors
  locally),
- **hashes stably** (:meth:`PredictorSpec.token` /
  :meth:`PredictorSpec.fit_token` — the cache-key ingredient), and
- **derives** sweep grids (:meth:`PredictorSpec.with_params` /
  :meth:`PredictorSpec.grid`).

Kinds live in a registry (:func:`register_spec_kind`): a new predictor
registers its builder, the subset of parameters that influence ``fit``
(``fit_params`` — the rest only shape ``predict``, so cached fit artifacts
are shared across them), and whether the builder accepts a ``seed``.
Parameters are normalized against the builder's signature at construction,
so two spellings of the same configuration always carry the same token.

Example::

    cross_validate(
        PredictorSpec.meta(prediction_window=w, rule_window=rw),
        events, k=10, jobs=4)
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.core.config import PredictorConfig
from repro.core.pipeline import ThreePhasePredictor
from repro.meta.ensembles import PolicyEnsemble
from repro.meta.stacked import MetaLearner
from repro.predictors.base import Predictor
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import StatisticalPredictor
from repro.taxonomy.categories import MainCategory
from repro.util.rng import SeedLike
from repro.util.timeutil import HOUR, MINUTE

#: Parameter values a spec may carry: JSON-stable primitives only.
ParamValue = Union[int, float, str, bool, None]


class SpecError(ValueError):
    """Unknown kind or invalid parameters for a predictor spec."""


@dataclass(frozen=True)
class SpecKind:
    """One registered predictor kind."""

    kind: str
    builder: Callable[..., Predictor]
    #: Parameter names whose values influence ``fit`` (and therefore the
    #: fit-artifact cache key).  Everything else only shapes ``predict``.
    fit_params: frozenset[str]
    #: Whether ``builder`` accepts a ``seed`` keyword (stochastic kinds).
    seeded: bool = False
    #: Builder parameter names (derived; ``seed`` excluded).
    param_names: frozenset[str] = field(init=False)
    #: Builder defaults per parameter (derived).
    defaults: dict[str, ParamValue] = field(init=False)

    def __post_init__(self) -> None:
        names: set[str] = set()
        defaults: dict[str, ParamValue] = {}
        for name, p in inspect.signature(self.builder).parameters.items():
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                raise SpecError(
                    f"spec builder for {self.kind!r} must have a fixed, "
                    f"introspectable signature (no *args/**kwargs)"
                )
            if name == "seed":
                continue
            names.add(name)
            if p.default is not p.empty:
                defaults[name] = p.default
        unknown = self.fit_params - names
        if unknown:
            raise SpecError(
                f"fit_params not in builder signature for {self.kind!r}: "
                f"{sorted(unknown)}"
            )
        object.__setattr__(self, "param_names", frozenset(names))
        object.__setattr__(self, "defaults", defaults)


_KINDS: dict[str, SpecKind] = {}


def register_spec_kind(
    kind: str,
    builder: Callable[..., Predictor],
    *,
    fit_params: Iterable[str],
    seeded: bool = False,
) -> SpecKind:
    """Register a predictor kind; new kinds plug in here, not in if/elifs."""
    if kind in _KINDS:
        raise SpecError(f"duplicate spec kind {kind!r}")
    entry = SpecKind(
        kind=kind,
        builder=builder,
        fit_params=frozenset(fit_params),
        seeded=seeded,
    )
    _KINDS[kind] = entry
    return entry


def spec_kind(kind: str) -> SpecKind:
    """Registry entry for ``kind``; :class:`SpecError` if unknown."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise SpecError(
            f"unknown spec kind {kind!r}; known: {', '.join(sorted(_KINDS))}"
        ) from None


def _check_param_value(name: str, value: Any) -> ParamValue:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecError(
        f"spec parameter {name!r} must be a JSON-stable primitive "
        f"(int/float/str/bool/None), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class PredictorSpec:
    """A declarative recipe for one predictor configuration.

    Construct through :meth:`of` or the per-kind conveniences
    (:meth:`statistical`, :meth:`rule`, :meth:`meta`, :meth:`three_phase`) —
    they normalize parameters against the kind's builder signature, so
    ``params`` is always the complete, sorted parameter set and equal
    configurations compare (and hash, and pickle) identically.
    """

    kind: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    # -- construction --------------------------------------------------- #

    @classmethod
    def of(cls, kind: str, **params: Any) -> "PredictorSpec":
        """Spec for a registered kind; unknown parameters are rejected."""
        entry = spec_kind(kind)
        unknown = set(params) - entry.param_names
        if unknown:
            raise SpecError(
                f"unknown parameters for kind {kind!r}: {sorted(unknown)}"
            )
        merged = dict(entry.defaults)
        merged.update(params)
        missing = entry.param_names - set(merged)
        if missing:
            raise SpecError(
                f"missing required parameters for kind {kind!r}: "
                f"{sorted(missing)}"
            )
        normalized = tuple(
            (name, _check_param_value(name, merged[name]))
            for name in sorted(merged)
        )
        return cls(kind=kind, params=normalized)

    @classmethod
    def statistical(cls, **params: Any) -> "PredictorSpec":
        """Spec for the statistical base predictor (paper §3.2.1)."""
        return cls.of("statistical", **params)

    @classmethod
    def rule(cls, **params: Any) -> "PredictorSpec":
        """Spec for the rule-based base predictor (paper §3.2.2)."""
        return cls.of("rule", **params)

    @classmethod
    def meta(cls, **params: Any) -> "PredictorSpec":
        """Spec for the stacked meta-learner (paper §3.3)."""
        return cls.of("meta", **params)

    @classmethod
    def three_phase(cls, **params: Any) -> "PredictorSpec":
        """Spec for the end-to-end three-phase predictor."""
        return cls.of("three-phase", **params)

    @classmethod
    def from_dict(cls, doc: dict) -> "PredictorSpec":
        """Rebuild a spec from its :meth:`as_manifest` document.

        The round-trip partner the lifecycle model registry uses: a snapshot
        manifest carries ``{"kind": ..., "params": {...}}`` and this restores
        a spec with the identical ``token()``/``fit_token()``.  Manifests
        written before the miner choice was retired carry a ``"miner"``
        parameter; it is dropped here (every miner mined the same rules),
        while :meth:`of` keeps rejecting unknown parameters.
        """
        try:
            kind = doc["kind"]
            params = doc.get("params", {})
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed spec document: {exc}") from exc
        if not isinstance(params, dict):
            raise SpecError("spec document 'params' is not an object")
        params = {k: v for k, v in params.items() if k != "miner"}
        return cls.of(str(kind), **params)

    def as_manifest(self) -> dict:
        """JSON-ready ``{"kind", "params"}`` document (registry manifests)."""
        return {"kind": self.kind, "params": self.as_dict()}

    # -- access / derivation -------------------------------------------- #

    def as_dict(self) -> dict[str, ParamValue]:
        """The parameters as a plain dict (copy)."""
        return dict(self.params)

    def get(self, name: str, default: ParamValue = None) -> ParamValue:
        """One parameter's value (``default`` if the kind lacks it)."""
        return self.as_dict().get(name, default)

    def with_params(self, **overrides: Any) -> "PredictorSpec":
        """A new spec with some parameters replaced (sweep derivation)."""
        merged = self.as_dict()
        merged.update(overrides)
        return PredictorSpec.of(self.kind, **merged)

    def grid(
        self, param: str, values: Sequence[float]
    ) -> list[tuple[float, "PredictorSpec"]]:
        """``(value, derived spec)`` pairs varying one parameter.

        The shape :func:`repro.evaluation.sweep.sweep` consumes; ``param``
        is typically ``"prediction_window"`` (Figures 4-5) or
        ``"rule_window"`` (Step 5).
        """
        return [(float(v), self.with_params(**{param: v})) for v in values]

    # -- identity -------------------------------------------------------- #

    def _token_of(self, params: dict[str, ParamValue]) -> str:
        payload = json.dumps(
            {"kind": self.kind, "params": params},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def token(self) -> str:
        """Stable content hash of the full configuration."""
        return self._token_of(self.as_dict())

    def fit_token(self) -> str:
        """Stable content hash of the *fit-relevant* configuration.

        Parameters that only shape ``predict`` (e.g. the meta-learner's
        ``prediction_window``) are excluded, so one cached fit artifact
        serves every sweep point that shares training parameters.
        """
        entry = spec_kind(self.kind)
        fit_only = {
            k: v for k, v in self.params if k in entry.fit_params
        }
        return self._token_of(fit_only)

    # -- realization ----------------------------------------------------- #

    @property
    def seeded(self) -> bool:
        """Whether this kind's builder threads an explicit seed."""
        return spec_kind(self.kind).seeded

    def build(self, seed: SeedLike = None) -> Predictor:
        """A fresh, unfitted predictor realizing this spec.

        ``seed`` is forwarded to seeded kinds (the evaluation engine spawns
        a per-fold child :class:`numpy.random.SeedSequence`); deterministic
        kinds ignore it.
        """
        entry = spec_kind(self.kind)
        kwargs: dict[str, Any] = self.as_dict()
        if entry.seeded:
            kwargs["seed"] = seed
        return entry.builder(**kwargs)


# ---------------------------------------------------------------------- #
# Built-in kinds
# ---------------------------------------------------------------------- #


def _build_statistical(
    window: float = HOUR,
    lead: float = 5 * MINUTE,
    trigger_threshold: float = 0.25,
    deduplicate: bool = False,
    categories: Optional[str] = None,
) -> StatisticalPredictor:
    # Spec params are JSON primitives, so forced trigger categories travel
    # as a comma-separated list of MainCategory names.
    forced = (
        [MainCategory[name] for name in categories.split(",")]
        if categories
        else None
    )
    return StatisticalPredictor(
        window=window,
        lead=lead,
        trigger_threshold=trigger_threshold,
        deduplicate=deduplicate,
        categories=forced,
    )


def _build_rule(
    rule_window: float = 15 * MINUTE,
    prediction_window: float = 30 * MINUTE,
    min_support: float = 0.04,
    min_confidence: float = 0.2,
    max_len: int = 6,
) -> RuleBasedPredictor:
    return RuleBasedPredictor(
        rule_window=rule_window,
        prediction_window=prediction_window,
        min_support=min_support,
        min_confidence=min_confidence,
        max_len=max_len,
    )


def _build_meta(
    prediction_window: float = 30 * MINUTE,
    rule_window: float = 15 * MINUTE,
    min_support: float = 0.04,
    min_confidence: float = 0.2,
    max_len: int = 6,
    statistical_window: float = HOUR,
    statistical_lead: float = 5 * MINUTE,
    trigger_threshold: float = 0.25,
) -> MetaLearner:
    return MetaLearner(
        prediction_window=prediction_window,
        statistical=StatisticalPredictor(
            window=statistical_window,
            lead=statistical_lead,
            trigger_threshold=trigger_threshold,
        ),
        rulebased=RuleBasedPredictor(
            rule_window=rule_window,
            prediction_window=prediction_window,
            min_support=min_support,
            min_confidence=min_confidence,
            max_len=max_len,
        ),
    )


def _build_three_phase(
    compression_threshold: float = 300.0,
    temporal_key_mode: str = "job_location",
    rule_window: float = 15 * MINUTE,
    min_support: float = 0.04,
    min_confidence: float = 0.2,
    max_rule_len: int = 6,
    statistical_lead: float = 5 * MINUTE,
    statistical_window: float = HOUR,
    trigger_threshold: float = 0.25,
    prediction_window: float = 30 * MINUTE,
) -> ThreePhasePredictor:
    return ThreePhasePredictor(PredictorConfig(
        compression_threshold=compression_threshold,
        temporal_key_mode=temporal_key_mode,
        rule_window=rule_window,
        min_support=min_support,
        min_confidence=min_confidence,
        max_rule_len=max_rule_len,
        statistical_lead=statistical_lead,
        statistical_window=statistical_window,
        trigger_threshold=trigger_threshold,
        prediction_window=prediction_window,
    ))


def _build_policy(policy: str) -> PolicyEnsemble:
    return PolicyEnsemble(policy)


register_spec_kind(
    "statistical",
    _build_statistical,
    # All statistical parameters shape fit (the band bounds the follow-up
    # count) except deduplicate, which only filters predict output.
    fit_params=("window", "lead", "trigger_threshold", "categories"),
)
register_spec_kind(
    "rule",
    _build_rule,
    # Mining sees rule_window + thresholds; prediction_window only drives
    # the test-time sliding window, so cached rule sets are shared across
    # the paper's Figure-4 sweep.
    fit_params=("rule_window", "min_support", "min_confidence", "max_len"),
)
register_spec_kind(
    "meta",
    _build_meta,
    fit_params=(
        "rule_window", "min_support", "min_confidence", "max_len",
        "statistical_window", "statistical_lead", "trigger_threshold",
    ),
)
register_spec_kind(
    "three-phase",
    _build_three_phase,
    fit_params=(
        "compression_threshold", "temporal_key_mode",
        "rule_window", "min_support", "min_confidence", "max_rule_len",
        "statistical_lead", "statistical_window", "trigger_threshold",
    ),
)
register_spec_kind(
    "policy",
    _build_policy,
    # The dispatch-ablation ensembles fit both bases at their defaults; the
    # policy only combines their warning streams at predict time.
    fit_params=(),
)

"""Spec-aware incremental fitting: one maintained miner per fit recipe.

The mining layer's :class:`~repro.mining.incremental.IncrementalRuleMiner`
knows nothing about :class:`~repro.evaluation.spec.PredictorSpec` (layering:
mining is a transform, specs are evaluation).  This module is the bridge:
:class:`IncrementalFitter` pools maintained miners keyed by each spec's
*mining recipe* (rule_window + thresholds — the fit-relevant parameters that
shape the transaction DB and the mined rules) and fits supported predictor
kinds by syncing the right miner to the training window and restoring the
resulting rule set through the predictors' public state paths.

Two call sites share one fitter and therefore one maintained structure:

- the evaluation engine's serial backend, where consecutive fold tasks of a
  ``spec.grid()`` sweep differ only in held-out range or predict-time
  parameters — the sync delta is the two folds that changed, or nothing;
- ``lifecycle.Retrainer``, where successive sliding windows overlap almost
  entirely — the sync delta is the freshly arrived and freshly evicted
  transactions.

Fits produced here are bit-identical to ``predictor.fit(train)`` (the
mining engine's equivalence guarantee plus the predictors' own
``restore_state`` contract), so artifact-cache payloads, cache keys, and
model-registry snapshot ids are unchanged by the optimization.

``is_incremental_enabled`` consults the ``REPRO_INCREMENTAL`` environment
variable (``1``/``true``/``on``) so the engine and lifecycle default from
the environment, mirroring ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Optional

from repro.evaluation.spec import PredictorSpec
from repro.meta.stacked import MetaLearner
from repro.mining.incremental import IncrementalRuleMiner
from repro.mining.transactions import EventSetDB, build_event_sets
from repro.obs import get_registry
from repro.predictors.base import Predictor
from repro.predictors.rulebased import RuleBasedPredictor
from repro.ras.store import EventStore

#: Spec kinds the incremental engine can fit.  ``statistical`` fits are a
#: single vectorized pass (nothing to maintain); ``three-phase`` owns its
#: Phase-1 preprocessing whose output feeds mining, so its training window
#: is not the classified store the fitter sees — both fall back.
SUPPORTED_KINDS = frozenset({"rule", "meta"})

_TRUTHY = {"1", "true", "on", "yes"}


def is_incremental_enabled(flag: Optional[bool] = None) -> bool:
    """Effective incremental switch: explicit flag, else ``REPRO_INCREMENTAL``."""
    if flag is not None:
        return bool(flag)
    raw = os.environ.get("REPRO_INCREMENTAL", "").strip().lower()
    return raw in _TRUTHY


def supports_incremental(spec: PredictorSpec) -> bool:
    """Whether :class:`IncrementalFitter` can fit this spec kind."""
    return spec.kind in SUPPORTED_KINDS


def mining_recipe(spec: PredictorSpec) -> tuple:
    """The parameters that determine the maintained mining state.

    Two specs with equal recipes see the same transaction DB and mine the
    same rule sets, so they can share one maintained miner (this is how a
    ``prediction_window`` sweep reuses a single fit per window).
    """
    return (
        float(spec.get("rule_window")),  # type: ignore[arg-type]
        float(spec.get("min_support")),  # type: ignore[arg-type]
        float(spec.get("min_confidence")),  # type: ignore[arg-type]
        int(spec.get("max_len")),  # type: ignore[arg-type]
    )


class IncrementalFitter:
    """Pool of maintained miners, one per mining recipe.

    Stateful and in-process by design: the maintained trees live in this
    object, so the process-pool backends (``jobs > 1``) cannot use it —
    callers fall back to the ordinary fit path there.
    """

    def __init__(self) -> None:
        self._miners: dict[tuple, IncrementalRuleMiner] = {}
        # Per recipe, the last training store and its event-set database,
        # whose bodies the next window's shared rows reuse.
        self._event_sets: dict[tuple, tuple[EventStore, EventSetDB]] = {}
        self.fits = 0
        #: Fits whose sync found a zero delta (pure reuse of the structure).
        self.zero_delta_fits = 0

    def miner_for(self, spec: PredictorSpec) -> IncrementalRuleMiner:
        """The maintained miner for this spec's mining recipe."""
        key = mining_recipe(spec)
        miner = self._miners.get(key)
        if miner is None:
            miner = IncrementalRuleMiner(
                min_support=key[1],
                min_confidence=key[2],
                max_len=key[3],
            )
            self._miners[key] = miner
        return miner

    def fit(
        self, spec: PredictorSpec, train: EventStore, seed=None
    ) -> Predictor:
        """A fitted predictor for ``spec`` on ``train`` — O(delta) mining."""
        predictor = spec.build(seed=seed)
        return self.fit_into(predictor, spec, train)

    def fit_into(
        self, predictor: Predictor, spec: PredictorSpec, train: EventStore
    ) -> Predictor:
        """Fit an already-built predictor via the maintained miner.

        Bit-identical to ``predictor.fit(train)`` for supported kinds;
        raises for unsupported ones (callers gate on
        :func:`supports_incremental`).
        """
        if not supports_incremental(spec):
            raise ValueError(
                f"spec kind {spec.kind!r} has no incremental fit path"
            )
        obs = get_registry()
        t0 = perf_counter()
        key = mining_recipe(spec)
        miner = self._miners.get(key) or self.miner_for(spec)
        db = build_event_sets(train, key[0], previous=self._event_sets.get(key))
        self._event_sets[key] = (train, db)
        added, evicted = miner.sync(db)
        ruleset = miner.rules()
        npf = db.no_precursor_fraction()
        if isinstance(predictor, MetaLearner):
            predictor.statistical.fit(train)
            predictor.rulebased.restore_state(ruleset, npf)
            predictor.mark_fitted()
        elif isinstance(predictor, RuleBasedPredictor):
            predictor.restore_state(ruleset, npf)
        else:  # pragma: no cover - kinds and classes move in lockstep
            raise ValueError(
                f"supported kind {spec.kind!r} built unexpected "
                f"{type(predictor).__name__}"
            )
        self.fits += 1
        if added == 0 and evicted == 0:
            self.zero_delta_fits += 1
            obs.counter("mining.incremental.zero_delta_fits")
        obs.counter("mining.incremental.fits")
        obs.observe("retrain.incremental_seconds", perf_counter() - t0)
        return predictor

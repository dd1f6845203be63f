"""Sliding-window retraining: when to refit and how to fit off the hot path.

:class:`RetrainPolicy` is the *decision*: refit every N events, refit when
the drift monitor fires, or both — with a cooldown so a persistent drift
signal cannot thrash the trainer.  :class:`Retrainer` is the *mechanism*:
it maintains a sliding window of recent classified events, fits a fresh
predictor from a declarative :class:`~repro.evaluation.spec.PredictorSpec`
(deterministically seeded via per-retrain child
:class:`~numpy.random.SeedSequence` spawning, the evaluation engine's
convention), optionally in a worker process and through the
content-addressed artifact cache, and registers the result in a
:class:`~repro.lifecycle.registry.ModelRegistry` with lineage back to the
model it replaces.

The fit travels across the process boundary as a learned-state document
(:func:`~repro.core.serialize.learned_state_to_dict`), the same payload the
evaluation engine memoizes — a worker never pickles a fitted predictor,
and a cached fit skips training entirely.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.cache import ArtifactCache, fold_fit_key, store_fingerprint
from repro.core.serialize import (
    SerializationError,
    apply_learned_state,
    learned_state_to_dict,
)
from repro.evaluation.engine import resolve_cache_dir, resolve_jobs
from repro.evaluation.incremental import (
    IncrementalFitter,
    is_incremental_enabled,
    supports_incremental,
)
from repro.evaluation.spec import PredictorSpec
from repro.lifecycle.registry import ModelRegistry, ModelSnapshot
from repro.obs import get_registry
from repro.predictors.base import Predictor
from repro.ras.store import EventStore
from repro.util.validation import check_positive


@dataclass(frozen=True)
class RetrainDecision:
    """Why (or why not) to retrain right now."""

    reason: Optional[str]  # "count" | "drift" | None

    def __bool__(self) -> bool:
        return self.reason is not None


class RetrainPolicy:
    """Count- and drift-triggered refits with a cooldown guard.

    Parameters
    ----------
    every_events:
        Refit after this many events since the last refit (``None`` — never
        by count).
    on_drift:
        Whether a drift signal triggers a refit.
    cooldown_events:
        Minimum events between refits regardless of trigger — a drift score
        that stays above threshold while the new window fills must not
        retrain on every chunk.
    """

    def __init__(
        self,
        every_events: Optional[int] = None,
        *,
        on_drift: bool = False,
        cooldown_events: int = 1024,
    ) -> None:
        if every_events is not None:
            check_positive(every_events, "every_events")
        if cooldown_events < 0:
            raise ValueError("cooldown_events must be >= 0")
        self.every_events = every_events
        self.on_drift = bool(on_drift)
        self.cooldown_events = int(cooldown_events)
        self.events_since_retrain = 0
        self.retrains = 0

    def observe_events(self, count: int) -> None:
        """Advance the event clock by ``count`` arrivals."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self.events_since_retrain += int(count)

    def decide(self, *, drifted: bool = False) -> RetrainDecision:
        """Should a refit happen now?  Drift outranks the count trigger."""
        if self.retrains and self.events_since_retrain < self.cooldown_events:
            return RetrainDecision(None)
        if self.on_drift and drifted:
            return RetrainDecision("drift")
        if (
            self.every_events is not None
            and self.events_since_retrain >= self.every_events
        ):
            return RetrainDecision("count")
        return RetrainDecision(None)

    def mark_retrained(self) -> None:
        """Reset the event clock after a refit."""
        self.events_since_retrain = 0
        self.retrains += 1


def _fit_state_in_worker(
    spec: PredictorSpec,
    window: EventStore,
    seed: Optional[np.random.SeedSequence],
) -> dict:
    """Fit in a worker process; ship the learned state back, not the model."""
    predictor = spec.build(seed=seed)
    predictor.fit(window)
    return learned_state_to_dict(predictor)


def fit_spec(
    spec: PredictorSpec,
    window: EventStore,
    *,
    jobs: Optional[int] = None,
    cache_dir: Union[str, Path, None] = None,
    seed: Optional[np.random.SeedSequence] = None,
    fitter: Optional[IncrementalFitter] = None,
) -> tuple[Predictor, bool]:
    """A predictor fitted on ``window``; returns ``(predictor, cache_hit)``.

    Mirrors the evaluation engine's fit path: consult the artifact cache
    under :func:`~repro.cache.fold_fit_key` (holdout range ``[0, 0)`` — the
    whole window is training data), fit on miss, memoize the learned state.
    ``jobs > 1`` runs the fit in a single worker process so a serving loop's
    event thread never blocks on mining.

    ``fitter`` (an :class:`~repro.evaluation.incremental.IncrementalFitter`)
    fits supported specs by delta against the fitter's maintained mining
    state instead — bit-identical output, so cache keys and payloads are
    unchanged.  The maintained state is in-process, which is exactly why an
    incremental fit is cheap enough to run on the caller's thread: it takes
    precedence over the worker-process path.
    """
    jobs = resolve_jobs(jobs)
    effective_dir = resolve_cache_dir(cache_dir)
    cache = ArtifactCache(effective_dir) if effective_dir else None
    predictor = spec.build(seed=seed)
    use_fitter = fitter is not None and supports_incremental(spec)
    key = ""
    if cache is not None:
        key = fold_fit_key(store_fingerprint(window), 0, 0, spec)
        doc = cache.get(key)
        if doc is not None:
            try:
                return apply_learned_state(predictor, doc), True
            except SerializationError:
                pass  # stale payload under our key: refit
    if use_fitter:
        assert fitter is not None
        predictor = fitter.fit_into(predictor, spec, window)
        state = None
    elif jobs > 1:
        with ProcessPoolExecutor(max_workers=1) as pool:
            state = pool.submit(_fit_state_in_worker, spec, window, seed).result()
        predictor = apply_learned_state(predictor, state)
    else:
        predictor.fit(window)
        state = None
    if cache is not None:
        try:
            cache.put(key, state if state is not None else learned_state_to_dict(predictor))
        except (OSError, SerializationError):
            pass  # caching is an optimization; never fail the retrain
    return predictor, False


class Retrainer:
    """Sliding-window refitter that registers every fit as a snapshot.

    Parameters
    ----------
    spec:
        The declarative recipe to refit (typically the serving model's own
        spec, recovered from its snapshot manifest).
    registry:
        Where fitted models are versioned; each retrain's snapshot carries
        a ``parent`` pointer to the model it replaces.
    window_events:
        Sliding-window size in events; :meth:`extend` keeps only the most
        recent ``window_events`` rows.
    seed:
        Root seed for seeded predictor kinds; retrain ``i`` uses the i-th
        spawned child sequence, so the stream of fits is a pure function of
        (seed, retrain index) — independent of wall time and worker count.
    incremental:
        Maintain mining state across retrains and refit by delta
        (bit-identical output; see :mod:`repro.mining.incremental`).
        ``None`` consults ``REPRO_INCREMENTAL``.  Only supported spec kinds
        use the maintained state; others fall back to the ordinary path.
    """

    def __init__(
        self,
        spec: PredictorSpec,
        registry: ModelRegistry,
        *,
        window_events: int = 50_000,
        jobs: Optional[int] = None,
        cache_dir: Union[str, Path, None] = None,
        seed: Optional[int] = None,
        incremental: Optional[bool] = None,
    ) -> None:
        check_positive(window_events, "window_events")
        self.spec = spec
        self.registry = registry
        self.window_events = int(window_events)
        self.jobs = jobs
        self.cache_dir = cache_dir
        self._seed_root = (
            np.random.SeedSequence(seed) if seed is not None else None
        )
        self._window: Optional[EventStore] = None
        # Chunks extended since the window was last built, and their rows.
        self._pending: list[EventStore] = []
        self._pending_rows = 0
        self.retrain_count = 0
        self.fitter: Optional[IncrementalFitter] = (
            IncrementalFitter()
            if is_incremental_enabled(incremental) and supports_incremental(spec)
            else None
        )

    # -- window maintenance -------------------------------------------- #

    @property
    def window(self) -> Optional[EventStore]:
        """The current sliding window (``None`` until events arrive).

        Built from the chunks extended since the last read, in one
        concatenation and one trim: the newest ``window_events`` rows of
        the merge are the rows that trimming after every chunk would keep.
        """
        if self._pending:
            self._build_window()
        return self._window

    @property
    def window_size(self) -> int:
        window = self.window
        return 0 if window is None else len(window)

    def extend(self, chunk: EventStore) -> None:
        """Append a classified chunk; :attr:`window` keeps the newest
        ``window_events`` rows."""
        if len(chunk) == 0:
            return
        self._pending.append(chunk)
        self._pending_rows += len(chunk)
        if self._pending_rows > self.window_events:
            self._build_window()  # bound what waits for a read

    def _build_window(self) -> None:
        stores = ([] if self._window is None else [self._window]) + self._pending
        merged = stores[0].concat(*stores[1:])
        if len(merged) > self.window_events:
            merged = merged.select(
                slice(len(merged) - self.window_events, len(merged))
            )
        self._window = merged
        self._pending, self._pending_rows = [], 0

    # -- fitting -------------------------------------------------------- #

    def retrain(
        self,
        *,
        parent: Optional[str] = None,
        note: str = "",
    ) -> tuple[ModelSnapshot, Predictor]:
        """Fit the spec on the current window and register the snapshot."""
        window = self.window
        if window is None or len(window) == 0:
            raise ValueError("retrainer window is empty; feed events first")
        seed = self._seed_root.spawn(1)[0] if self._seed_root else None
        obs = get_registry()
        with obs.span("lifecycle.retrain", spec=self.spec.kind):
            predictor, cache_hit = fit_spec(
                self.spec,
                window,
                jobs=self.jobs,
                cache_dir=self.cache_dir,
                seed=seed,
                fitter=self.fitter,
            )
            snapshot = self.registry.save(
                predictor,
                spec=self.spec,
                store_fingerprint=store_fingerprint(window),
                parent=parent,
                train_events=len(window),
                note=note,
            )
        self.retrain_count += 1
        obs.counter("lifecycle.retrains")
        obs.counter(
            "lifecycle.retrain_cache", hit="true" if cache_hit else "false"
        )
        return snapshot, predictor

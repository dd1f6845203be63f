"""Online failure detection with causal warning resolution (the daemon API).

:class:`OnlineSession` holds a fitted :class:`~repro.meta.stacked.MetaLearner`'s
dispatch stream (:class:`~repro.meta.stacked.MetaStream`) and feeds it
classified stores chunk by chunk; the warnings each chunk raised are returned
immediately.  Its output over a stream equals ``meta.predict(store)`` over the
whole store (same dispatch loop underneath), for any chunking.

The session also *resolves* warnings: it matches them against the failures
that subsequently arrive, expiring horizons as the clock advances, and
maintains the counters an operator dashboard would show (caught/missed
failures, false alarms, lead times).  Resolution is causal — a warning is
only counted as a false alarm once its horizon has fully elapsed without a
failure — and runs on the heap-based
:class:`~repro.online.resolution.WarningResolver` (O(log P) amortized per
event in the pending-warning count P).
"""

from __future__ import annotations

from repro.meta.stacked import MetaLearner, MetaStream
from repro.online.resolution import SessionStats, WarningResolver
from repro.predictors.base import FailureWarning
from repro.ras.store import EventStore

__all__ = ["OnlineSession", "SessionStats"]


def _check_fitted(meta: MetaLearner) -> None:
    if not meta.is_fitted:
        raise ValueError("MetaLearner must be fitted before going online")


class OnlineSession:
    """A fitted model's dispatch stream plus causal warning resolution.

    :meth:`process_store` returns the warnings raised by a classified chunk;
    resolution state is read off :attr:`stats` at any time.  A warning
    becomes a *hit* the first time a failure lands in its horizon and a
    *false alarm* when an event arrives after its horizon with no failure
    having landed.
    """

    def __init__(self, meta: MetaLearner) -> None:
        _check_fitted(meta)
        self.meta = meta
        self._stream: MetaStream = meta.stream()
        self.resolver = WarningResolver()

    def swap_model(self, meta: MetaLearner) -> None:
        """Install a new fitted model at a warning-safe barrier.

        Call *between* chunks (each :meth:`process_store` call is atomic, so
        any inter-chunk point is a barrier).  The dispatch stream is rebuilt
        from scratch — the new model starts from empty window state, exactly
        as a cold restart would — while the resolver keeps running, so
        warnings the old model issued still resolve against the events that
        follow.  The emitted warning stream is therefore identical, element
        for element, to stopping this session at the barrier and
        cold-starting the new model on the remaining stream (tested in
        ``tests/lifecycle/test_swap.py``).
        """
        _check_fitted(meta)
        self.meta = meta
        self._stream = meta.stream()

    @property
    def stats(self) -> SessionStats:
        """The resolver's operator-facing counters."""
        return self.resolver.stats

    @property
    def pending_count(self) -> int:
        """Warnings whose horizon has not fully elapsed yet."""
        return self.resolver.pending_count

    def process_store(self, store: EventStore) -> list[FailureWarning]:
        """Feed a classified chunk; returns the warnings it raised, in order.

        Detection runs once over the columns (:meth:`MetaStream.detect`);
        resolution then replays the merged event/warning timeline.  A
        warning issued at time ``t`` never covers events at ``t`` (horizons
        start strictly later), so enqueueing each warning just before the
        first event after its issue time reproduces the per-event
        interleaving exactly.  Warnings issued at a chunk's last timestamp
        enqueue at the end of the chunk, which is observationally identical
        for the same reason — so :attr:`stats` does not depend on chunking.
        """
        warnings = self._stream.detect(store)
        resolver = self.resolver
        stats = resolver.stats
        advance = resolver.advance
        observe_failure = resolver.observe_failure
        add = resolver.add
        times = store.times.tolist()
        fatal_list = store.fatal_mask().tolist()
        wi = 0
        n_warnings = len(warnings)
        for t, is_fatal in zip(times, fatal_list):
            while wi < n_warnings and warnings[wi].issued_at < t:
                add(warnings[wi])
                wi += 1
            advance(t)
            stats.events += 1
            if is_fatal:
                observe_failure(t)
        while wi < n_warnings:
            add(warnings[wi])
            wi += 1
        return warnings

    def finish(self) -> SessionStats:
        """Resolve every outstanding warning (end of shift) and return stats."""
        return self.resolver.finalize()

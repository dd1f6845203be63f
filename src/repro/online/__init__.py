"""Online deployment surface (paper §3.3 discussion).

The paper argues the meta-learner is cheap enough "to deploy ... as an
online prediction engine" — rule matching is trivial and only an hour of
history must be retained.  The batch predictors in :mod:`repro.predictors`
and :mod:`repro.meta` process whole stores; this subpackage provides the
chunk-at-a-time counterpart a monitoring daemon would embed:

- :class:`repro.online.detector.OnlineSession` — feed classified stores
  chunk by chunk (``process_store``); warnings are returned the moment they
  are raised.  Detection is the same loop
  :meth:`repro.meta.stacked.MetaLearner.predict` runs, so its output is
  bit-identical to offline prediction on the same stream (tested) and
  offline evaluation transfers to deployment.  The session also resolves
  warnings against observed failures in real time, maintaining the
  operator-facing counters (hits, false alarms, misses, lead times).
- :class:`repro.online.resolution.WarningResolver` — the heap-based
  resolution core (O(log P) amortized per event in the pending count P),
  shared by the session and the :mod:`repro.serve` engine.

For serving many independent streams from one fitted model, see
:mod:`repro.serve` (sharded detector pool, throughput accounting).
"""

from repro.online.detector import OnlineSession
from repro.online.resolution import SessionStats, WarningResolver

__all__ = ["OnlineSession", "SessionStats", "WarningResolver"]

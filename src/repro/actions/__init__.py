"""Cost-aware prediction-to-action engine.

Failure prediction only matters if it drives preventive action.  This
layer turns the serving stack's warning stream into scheduled actions —
checkpoint, migrate, quarantine — under an explicit :class:`CostModel`,
and settles them against ground-truth outcomes into a :class:`Ledger`
denominated in node-seconds, the business metric precision/recall proxies
for.

Entry points:

- :class:`ActionEngine` — the deterministic decide/schedule/settle fold
  over events + warnings (implements serve's ``ActionSink`` protocol);
- :mod:`repro.actions.policy` — the pluggable decision rules, including
  the :class:`CostAwarePolicy` composite that never knowingly loses
  node-seconds.
"""

from repro.actions.cost import ACTION_KINDS, NODES_PER_MIDPLANE, Action, CostModel
from repro.actions.engine import ActionEngine
from repro.actions.jobview import (
    JobView,
    RunningJob,
    StreamJobView,
    TraceJobView,
)
from repro.actions.ledger import (
    OUTCOMES,
    Ledger,
    LedgerEntry,
    LedgerTracker,
)
from repro.actions.policy import (
    POLICY_NAMES,
    CheckpointPolicy,
    CostAwarePolicy,
    MigrationPolicy,
    NeverActPolicy,
    Policy,
    PolicyContext,
    QuarantinePolicy,
    build_policy,
)

__all__ = [
    "ACTION_KINDS",
    "NODES_PER_MIDPLANE",
    "OUTCOMES",
    "POLICY_NAMES",
    "Action",
    "ActionEngine",
    "CheckpointPolicy",
    "CostAwarePolicy",
    "CostModel",
    "JobView",
    "Ledger",
    "LedgerEntry",
    "LedgerTracker",
    "MigrationPolicy",
    "NeverActPolicy",
    "Policy",
    "PolicyContext",
    "QuarantinePolicy",
    "RunningJob",
    "StreamJobView",
    "TraceJobView",
    "build_policy",
]

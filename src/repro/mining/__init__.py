"""Association-rule mining substrate (paper §3.2.2).

Implemented from scratch (no external ML dependency):

- :mod:`repro.mining.transactions` — building *event-sets* (the paper's
  transactions): for each fatal event, the set of non-fatal subcategories
  observed in the rule-generation window before it.
- :mod:`repro.mining.incremental` — the mining engine: a weighted
  transaction multiset whose itemsets are partitioned by their largest
  item and counted by one NumPy tid-list kernel
  (:func:`mine_partitions`).  A one-shot fit (:func:`generate_rules`)
  fills it from empty; sliding-window retrains add and evict transaction
  windows and re-mine only the suffix partitions whose counts changed,
  with bit-identical rule sets.
- :mod:`repro.mining.rules` — rule generation (body of non-fatal items, head
  of fatal items), the paper's per-body rule *combination*, confidence
  sorting, and the matcher used at prediction time.

The paper's cited Apriori (Agrawal & Srikant) is kept as the test oracle
the engine is checked against, in ``tests/oracles.py``.
"""

from repro.mining.counts import min_count_for
from repro.mining.incremental import (
    IncrementalMiner,
    IncrementalRuleMiner,
    generate_rules,
    mine_partitions,
)
from repro.mining.rules import Rule, RuleSet, rule_candidates, rules_from_itemsets
from repro.mining.transactions import (
    EventSetDB,
    build_event_sets,
    build_tiled_windows,
)

__all__ = [
    "min_count_for",
    "IncrementalMiner",
    "IncrementalRuleMiner",
    "mine_partitions",
    "Rule",
    "RuleSet",
    "generate_rules",
    "rule_candidates",
    "rules_from_itemsets",
    "EventSetDB",
    "build_event_sets",
    "build_tiled_windows",
]

"""Association-rule mining substrate (paper §3.2.2), from scratch.

- :mod:`repro.mining.transactions` builds the paper's *event-sets*.
- :mod:`repro.mining.incremental` is the mining engine: one-shot fits and
  O(delta) sliding-window retrains with bit-identical rule sets.
- :mod:`repro.mining.rules` runs Steps 2-4 and holds the matcher.

The paper's cited Apriori is the test oracle, in ``tests/oracles.py``.
"""

from repro.mining.counts import min_count_for
from repro.mining.incremental import (
    IncrementalMiner,
    IncrementalRuleMiner,
    generate_rules,
    mine_partitions,
)
from repro.mining.rules import Rule, RuleSet, rules_from_table
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
    "rules_from_table",
    "EventSetDB",
    "build_event_sets",
    "build_tiled_windows",
]

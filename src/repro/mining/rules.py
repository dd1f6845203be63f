"""Association-rule generation, combination and matching (paper §3.2.2).

From the mined frequent itemsets we keep rules of the form

    {non-fatal precursors} -> {fatal event(s)}

with support and confidence above the paper's thresholds (0.04 / 0.2).
Rules with the same body are *combined* (Step 3: "if {e...} -> f1 and
{e...} -> f2 are generated, we combine them as {e...} -> {f1, f2}"), because
the predictor only needs to know *whether* a failure is imminent.  Combined
confidence is recomputed against the database as P(any head | body).  Rules
are sorted by descending confidence (Step 4) and the matcher returns the
highest-confidence rule observed (Step 6).

:class:`RuleMatcher` is the streaming-window matcher used at prediction time:
it maintains the set of items present in the sliding observation window and
reports rules the moment their body becomes fully observed — O(rules
containing the arriving item) per event, not O(all rules).

Rule items are ids into the *training* store's label table
(:attr:`RuleSet.item_names`).  Any other store interns its labels in its own
order, so every prediction path maps a store into the model's item space by
name first, through :func:`item_ids_for`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.obs import get_registry
from repro.ras.store import UNCLASSIFIED, EventStore
from repro.util.validation import check_fraction

#: Counts a rule body against the database: (body_count, hit_count) where
#: hit_count is the number of body-containing transactions that also contain
#: at least one head.  Only bodies with several heads are counted this way;
#: the mining engine passes a memoizing counter.
BodyCounter = Callable[[frozenset[int], frozenset[int]], tuple[int, int]]

#: A Step-2 rule candidate: ``(body, head, count)`` of an itemset with
#: exactly one fatal item.
Candidate = tuple[frozenset[int], frozenset[int], int]


@dataclass(frozen=True)
class Rule:
    """An association rule body -> heads with its quality measures."""

    body: frozenset[int]
    heads: frozenset[int]
    confidence: float
    support: float
    support_count: int

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("rule body must be non-empty")
        if not self.heads:
            raise ValueError("rule heads must be non-empty")
        check_fraction(self.confidence, "confidence")
        check_fraction(self.support, "support")

    def format(self, item_names: Sequence[str]) -> str:
        """Figure-3 style rendering: ``a b ==> f: 0.7``."""
        body = " ".join(sorted(item_names[i] for i in self.body))
        heads = " ".join(sorted(item_names[i] for i in self.heads))
        return f"{body} ==> {heads}: {self.confidence:g}"


def _rule_sort_key(r: Rule) -> tuple:
    """Total deterministic order: Step-4 confidence-descending, then support,
    then body/heads contents.  A *total* order (not just confidence/support)
    makes the rule list a pure function of the itemset table and transaction
    multiset — required for the incremental engine's bit-identical guarantee,
    which must not depend on dict iteration order.
    """
    return (
        -r.confidence,
        -r.support_count,
        tuple(sorted(r.body)),
        tuple(sorted(r.heads)),
    )


def rule_candidates(
    itemsets: Mapping[frozenset[int], int], fatal_items: frozenset[int]
) -> list[Candidate]:
    """The Step-2 candidates among ``itemsets`` (non-empty bodies only)."""
    return [
        (itemset - head, head, count)
        for itemset, count in itemsets.items()
        if len(itemset) > 1 and len(head := itemset & fatal_items) == 1
    ]


def rules_from_itemsets(
    freq: Mapping[frozenset[int], int],
    n_transactions: int,
    *,
    candidates: Iterable[Candidate],
    item_names: Sequence[str],
    fatal_items: frozenset[int],
    min_confidence: float = 0.2,
    combine: bool = True,
    prune_generalizations: bool = True,
    body_counter: BodyCounter,
) -> "RuleSet":
    """Steps 2-4 from an already-mined itemset->count table.

    The rule half of mining: the engine
    (:mod:`repro.mining.incremental`, whose ``generate_rules`` is the
    one-shot entry point) feeds it a maintained itemset table, the
    :func:`rule_candidates` of that table and a memoizing
    ``body_counter``.  The result depends only on the itemset table and
    the counts, never on dict or candidate order (see
    :func:`_rule_sort_key`).
    """
    check_fraction(min_confidence, "min_confidence")
    obs = get_registry()
    n = n_transactions
    if n == 0:
        return RuleSet([], item_names, fatal_items)

    # Step 2: single-head rules body(non-fatal) -> head(fatal).
    singles: list[Rule] = []
    for body, heads, count in candidates:
        body_count = freq.get(body)
        if not body_count:
            continue  # body below support (cannot happen: itemsets are downward closed)
        conf = count / body_count
        if conf < min_confidence:
            continue
        singles.append(
            Rule(
                body=body,
                heads=heads,
                confidence=conf,
                support=count / n,
                support_count=count,
            )
        )
    if prune_generalizations:
        n_before = len(singles)
        singles = _prune_generalizations(singles)
        obs.counter("mining.rules_pruned", n_before - len(singles))
    if not combine:
        obs.counter("mining.rules_kept", len(singles))
        return RuleSet(
            sorted(singles, key=_rule_sort_key), item_names, fatal_items
        )

    # Step 3: combine rules sharing a body; recompute confidence as
    # P(any head | body) over the database.  A body with one head keeps its
    # Step-2 rule: freq[body | head] / freq[body] already is that
    # probability, from exact counts.
    by_body: dict[frozenset[int], list[Rule]] = defaultdict(list)
    for r in singles:
        by_body[r.body].append(r)
    combined: list[Rule] = []
    for body, same_body in by_body.items():
        if len(same_body) == 1:
            combined.append(same_body[0])
            continue
        heads = frozenset().union(*(r.heads for r in same_body))
        body_count, hit_count = body_counter(body, heads)
        conf = hit_count / body_count if body_count else 0.0
        combined.append(
            Rule(
                body=body,
                heads=heads,
                confidence=conf,
                support=hit_count / n,
                support_count=hit_count,
            )
        )
    # Step 4: descending confidence (total order for determinism).
    combined.sort(key=_rule_sort_key)
    obs.counter("mining.rules_kept", len(combined))
    return RuleSet(combined, item_names, fatal_items)


def _prune_generalizations(rules: list[Rule]) -> list[Rule]:
    """Drop rules subsumed by a more specific, at-least-as-confident rule.

    Rule ``a`` is subsumed when some rule ``b`` has ``a.body < b.body``, a
    head in common and ``b.confidence >= a.confidence``.  Instead of testing
    all pairs, every rule ``b`` records its confidence under each
    ``(non-empty proper sub-body, head)`` it specialises, keeping the
    maximum; ``a`` is then subsumed iff that maximum at ``(a.body, h)``
    reaches ``a.confidence`` for some head ``h``.  Cost is
    O(sum of 2^|body|), which ``max_len`` bounds; input order is kept.
    """
    best: dict[tuple[frozenset[int], int], float] = {}
    for b in rules:
        body = tuple(b.body)
        for size in range(1, len(body)):
            for sub in combinations(body, size):
                sub_body = frozenset(sub)
                for head in b.heads:
                    key = (sub_body, head)
                    if best.get(key, -1.0) < b.confidence:
                        best[key] = b.confidence
    return [
        a
        for a in rules
        if not any(best.get((a.body, h), -1.0) >= a.confidence for h in a.heads)
    ]


class RuleSet:
    """An ordered (confidence-descending) collection of rules."""

    def __init__(
        self,
        rules: Sequence[Rule],
        item_names: Sequence[str],
        fatal_items: frozenset[int],
    ) -> None:
        self.rules: list[Rule] = list(rules)
        self.item_names: list[str] = list(item_names)
        #: Item name -> item id, for mapping other stores' labels by name.
        self.item_index: dict[str, int] = {
            name: i for i, name in enumerate(self.item_names)
        }
        self.fatal_items = fatal_items
        self._by_item: dict[int, list[int]] = defaultdict(list)
        for idx, rule in enumerate(self.rules):
            for item in rule.body:
                self._by_item[item].append(idx)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __getitem__(self, i: int) -> Rule:
        return self.rules[i]

    def rules_containing(self, item: int) -> list[int]:
        """Indices of rules whose body contains ``item``."""
        return self._by_item.get(item, [])

    def best_match(self, observed: Iterable[int]) -> Optional[Rule]:
        """Highest-confidence rule whose body is fully observed, if any."""
        observed = set(observed)
        for rule in self.rules:  # already confidence-descending
            if rule.body <= observed:
                return rule
        return None

    def matching(self, observed: Iterable[int]) -> list[Rule]:
        """All rules whose body is fully observed (confidence-descending)."""
        observed = set(observed)
        return [r for r in self.rules if r.body <= observed]

    def format_rules(self, limit: Optional[int] = None) -> str:
        """Figure-3 style listing of the top rules."""
        rules = self.rules if limit is None else self.rules[:limit]
        return "\n".join(r.format(self.item_names) for r in rules)


def item_ids_for(
    store: EventStore, item_index: Mapping[str, int], unseen: int
) -> np.ndarray:
    """A classified store's subcategory column, in a model's item space.

    Labels are matched by *name* through ``item_index`` (one pass over the
    store's small label table, then one fancy-index over the rows), so the
    result does not depend on the order in which the store interned its
    labels.  A label ``item_index`` lacks maps to ``unseen``.
    """
    remap = np.array(
        [item_index.get(name, unseen) for name in store.subcat_table]
        or [unseen],
        dtype=np.int64,
    )
    return remap[classified_subcats(store)]


def classified_subcats(store: EventStore) -> np.ndarray:
    """A store's subcategory ids; raises if any row is unclassified."""
    ids = store.subcat_ids
    if len(ids) and bool((ids == UNCLASSIFIED).any()):
        raise ValueError(
            "store has unclassified rows; run the Phase-1 pipeline first"
        )
    return ids


class RuleMatcher:
    """Streaming matcher over a sliding observation window.

    Feed items as they enter/leave the window; ``add`` returns the rules that
    became fully satisfied by the arrival (i.e. the arriving item completed
    their body), which is exactly when the predictor should consider raising
    a warning.
    """

    def __init__(self, ruleset: RuleSet) -> None:
        self.ruleset = ruleset
        self._present: dict[int, int] = defaultdict(int)  # item -> multiplicity
        self._missing: list[int] = [len(r.body) for r in ruleset.rules]
        # Lazy min-heap of rule indices that became satisfied.  Rules are
        # confidence-descending, so the smallest *currently satisfied* index
        # is exactly the paper's Step-6 pick; stale entries (rules that fell
        # back out of the window) are discarded at query time, which keeps
        # best_satisfied() O(log R) amortized instead of O(R) per event.
        self._satisfied_heap: list[int] = []

    def reset(self) -> None:
        """Clear the window state."""
        self._present.clear()
        self._missing = [len(r.body) for r in self.ruleset.rules]
        self._satisfied_heap.clear()

    def add(self, item: int) -> list[Rule]:
        """Item enters the window; returns rules completed by this arrival."""
        self._present[item] += 1
        completed: list[Rule] = []
        if self._present[item] == 1:  # 0 -> 1 transition
            for idx in self.ruleset.rules_containing(item):
                self._missing[idx] -= 1
                if self._missing[idx] == 0:
                    completed.append(self.ruleset.rules[idx])
                    heappush(self._satisfied_heap, idx)
        completed.sort(key=lambda r: -r.confidence)
        return completed

    def remove(self, item: int) -> None:
        """Item leaves the window."""
        count = self._present.get(item, 0)
        if count == 0:
            raise ValueError(f"item {item} not present in window")
        if count == 1:
            del self._present[item]
            for idx in self.ruleset.rules_containing(item):
                self._missing[idx] += 1
        else:
            self._present[item] = count - 1

    def satisfied_rules(self) -> list[Rule]:
        """All rules currently fully observed (confidence-descending)."""
        return [
            self.ruleset.rules[i]
            for i, m in enumerate(self._missing)
            if m == 0
        ]

    def best_satisfied(self) -> Optional[Rule]:
        """Highest-confidence rule currently fully observed, if any.

        Equivalent to scanning :meth:`satisfied_rules` for the max-confidence
        rule (ties broken by support count, i.e. ruleset order), but O(log R)
        amortized: the satisfied-index heap is maintained incrementally by
        :meth:`add` and pruned of stale entries here.
        """
        heap = self._satisfied_heap
        missing = self._missing
        while heap and missing[heap[0]] != 0:
            heappop(heap)
        if not heap:
            return None
        return self.ruleset.rules[heap[0]]

    def observed_items(self) -> set[int]:
        """Distinct items currently in the window."""
        return set(self._present)

    def has_observed(self) -> bool:
        """True if any item is currently in the window (no set built)."""
        return bool(self._present)

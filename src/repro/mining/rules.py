"""Association-rule generation, combination and matching (paper §3.2.2).

Rules are ``{non-fatal precursors} -> {fatal event(s)}`` with support and
confidence above the paper's thresholds (0.04 / 0.2).  Rules with the same
body are combined (Step 3) with confidence P(any head | body), sorted by
descending confidence (Step 4), and the matcher returns the
highest-confidence rule observed (Step 6).  :class:`RuleMatcher` reports a
rule the moment its body becomes fully observed, in O(rules containing the
arriving item) per event.  Rule items are ids into the *training* store's
label table; :func:`item_ids_for` maps any other store into it by name.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import accumulate, chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.obs import get_registry
from repro.ras.store import UNCLASSIFIED, EventStore
from repro.util.validation import check_fraction

#: About how many ``(rule, rule)`` pairs one block of the pruning test
#: holds, which bounds its arrays.
BLOCK_PAIRS = 1 << 16

#: ``_BYTE_BITS[v, b]``: whether bit ``b`` of the byte value ``v`` is set.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(bool)

#: The odd multiplier of :func:`_row_index`' key polynomial over the words.
KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

ONE = np.uint64(1)


def words_for(n_items: int) -> int:
    """``W``, the ``uint64`` words of a mask over item ids ``< n_items``."""
    return max(1, -(-n_items // 64))


def masks_of(itemsets: Sequence[Iterable[int]], n_words: int) -> np.ndarray:
    """An ``(n, n_words)`` ``uint64`` array: row ``r`` has bit ``i % 64`` of
    word ``i // 64`` set for every item ``i`` of ``itemsets[r]``."""
    lists = [list(s) for s in itemsets]
    items = np.fromiter(chain.from_iterable(lists), np.int64)
    rows = np.arange(len(lists)).repeat([len(s) for s in lists])
    out = np.zeros((len(lists), n_words), np.uint64)
    np.bitwise_or.at(out, (rows, items >> 6), ONE << (items & 63).astype(np.uint64))
    return out


def mask_cells(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, item)`` of every set bit, by row and then item."""
    raw = np.ascontiguousarray(masks, "<u8").view(np.uint8).ravel()
    byte = raw.nonzero()[0]
    bits = (8 * byte[:, None] + np.arange(8)).ravel()
    bits = bits.compress(_BYTE_BITS.take(raw.take(byte), 0).ravel())
    return np.divmod(bits, 64 * masks.shape[1])


def mask_items(masks: np.ndarray) -> list[list[int]]:
    """Each row's item ids, ascending."""
    row, item = mask_cells(masks)
    ends = np.bincount(row, minlength=len(masks)).cumsum().tolist()
    flat = item.tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


@lru_cache(maxsize=16)
def _fatal_mask(fatal_items: frozenset[int], n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The fatal items' mask and its complement (do not mutate)."""
    fatal = masks_of([[i for i in fatal_items if i < 64 * n_words]], n_words)[0]
    return fatal, ~fatal


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


def rules_from_table(
    masks: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    *,
    item_names: Sequence[str],
    fatal_items: frozenset[int],
    min_confidence: float = 0.2,
    combine: bool = True,
    prune_generalizations: bool = True,
) -> "RuleSet":
    """Steps 2-4 on the engine's itemset table (``masks`` / ``counts``)
    and distinct transactions (``rows`` / ``weights``), all mask arrays
    (see :func:`masks_of` and docs/incremental_mining.md).  A candidate has
    one fatal bit and a non-empty body; its body count is looked up in the
    table, which is downward closed.
    """
    check_fraction(min_confidence, "min_confidence")
    obs = get_registry()
    fatal, not_fatal = _fatal_mask(fatal_items, masks.shape[1])

    # Step 2: single-head rules body(non-fatal) -> head(fatal), from the
    # itemsets with one fatal bit and a non-empty body: n_heads counts a
    # word with fatal bits once, and once more if it holds several.
    n_heads = np.zeros(len(masks), np.int64)
    for w in range(masks.shape[1]):
        head = masks[:, w] & fatal[w]
        n_heads += head != 0
        n_heads += (head & (head - ONE)) != 0
    cand = (n_heads == 1).nonzero()[0]
    body = masks.take(cand, 0) & not_fatal
    has_body = body[:, 0] != 0
    for w in range(1, masks.shape[1]):
        has_body |= body[:, w] != 0
    cand, body = cand.compress(has_body), body.compress(has_body, 0)
    row = _row_index(masks, body)
    conf = counts.take(cand) / counts.take(row)
    keep = (conf >= min_confidence).nonzero()[0]
    cand, row, conf, m = cand.take(keep), row.take(keep), conf.take(keep), len(keep)
    cand_masks = masks.take(cand, 0)
    body, heads = cand_masks & not_fatal, cand_masks & fatal
    # Body cells (rows < m) come first, then one head cell per rule.
    cell_row, cell_item = mask_cells(np.concatenate([body, heads]))
    size = np.bincount(cell_row[: len(cell_row) - m], minlength=m)
    head = cell_item[len(cell_row) - m :]
    live = np.arange(m)
    if prune_generalizations:
        pruned = _subsumed(body, conf, size, live, head)
        obs.counter("mining.rules_pruned", int(pruned.sum()))
        live = live.compress(~pruned)

    # Step 3: combine rules sharing a body (one table row); confidence
    # becomes P(any head | body) over the database.  A body with one head
    # keeps its Step-2 rule: count / body count already is that.
    groups: dict[int, list[int]] = {}
    for i, r in zip(live.tolist(), row.take(live).tolist() if combine else live.tolist()):
        groups.setdefault(r, []).append(i)
    flat, ends = cell_item.tolist(), size.cumsum().tolist()
    starts, count_l = [0] + ends, counts.take(cand).tolist()
    conf_l, head_l = conf.tolist(), head.tolist()
    rules = [
        (count_l[i], conf_l[i], flat[starts[i] : ends[i]], [head_l[i]])
        for i, *more in groups.values()
        if not more
    ]
    multi = [g for g in groups.values() if len(g) > 1]
    if multi:
        first = list(accumulate([len(g) for g in multi[:-1]], initial=0))
        merged = np.bitwise_or.reduceat(heads.take([i for g in multi for i in g], 0), first)
        has_body, hit = _containing(rows, body.take([g[0] for g in multi], 0), merged)
        for g, n, h in zip(multi, (has_body @ weights).tolist(), (hit @ weights).tolist()):
            i = g[0]
            rules.append((h, h / n, flat[starts[i] : ends[i]], sorted(map(head_l.__getitem__, g))))

    # Step 4: descending confidence, then support, then the body and head
    # item lists.  A *total* order makes the rule list a pure function of
    # the itemset table and the transaction multiset, never of row order,
    # which the incremental engine's bit-identical guarantee needs.
    rules.sort(key=lambda r: (-r[1], -r[0], r[2], r[3]))
    obs.counter("mining.rules_kept", len(rules))
    n = int(weights.sum())
    return RuleSet(
        [r[2] for r in rules],
        [r[3] for r in rules],
        [r[1] for r in rules],
        [r[0] / n for r in rules],
        [r[0] for r in rules],
        item_names,
        fatal_items,
    )


def _row_index(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query row, the index of the equal row of ``table`` (every
    query must have one): a sort on a polynomial key of the words with the
    row number in its low bits; a query steps over colliding rows until
    the whole row matches."""
    keys = []
    for rows in (table, queries):
        key = rows[:, 0] * KEY_MULTIPLIER
        for w in range(1, rows.shape[1]):
            key = (key + rows[:, w]) * KEY_MULTIPLIER
        keys.append(key)
    low = np.uint64((1 << max(len(table) - 1, 1).bit_length()) - 1)
    packed = keys[0] & ~low | np.arange(len(table), dtype=np.uint64)
    packed.sort()
    at = packed.searchsorted(keys[1] & ~low)
    out = (packed.take(at) & low).astype(np.int64)
    todo = (table.take(out, 0) != queries).any(1).nonzero()[0]
    while len(todo):
        at[todo] += 1
        out[todo] = packed.take(at[todo]) & low
        todo = todo[(table.take(out[todo], 0) != queries.take(todo, 0)).any(1)]
    return out


def _containing(
    rows: np.ndarray, body: np.ndarray, heads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(k, n)`` boolean arrays: whether transaction row ``j`` holds body
    ``i``, and whether it also holds one of heads ``i``."""
    has_body = np.ones((len(body), len(rows)), bool)
    hit = np.zeros_like(has_body)
    for w in range(rows.shape[1]):
        has_body &= (rows[:, w] & body[:, w, None]) == body[:, w, None]
        hit |= (rows[:, w] & heads[:, w, None]) != 0
    return has_body, has_body & hit


def _subsumed(
    body: np.ndarray,
    conf: np.ndarray,
    size: np.ndarray,
    rule: np.ndarray,
    item: np.ndarray,
) -> np.ndarray:
    """Rules that some rule ``b`` with ``a.body < b.body``, a head in
    common and ``b.confidence >= a.confidence`` subsumes (the matcher
    prefers the stronger specialization anyway).  ``size`` counts each
    body's items; ``(rule[e], item[e])`` lists every head of every rule.
    Head entries are grouped by item and ordered by body size, and each is
    tested against the larger bodies of its group with ``(a & ~b) == 0``
    per word, in blocks of about :data:`BLOCK_PAIRS` pairs.
    """
    out = np.zeros(len(conf), bool)
    # Entry e = (head item, rule) sorts by (item, body size); it pairs with
    # the span[e] entries from first[e] on, the larger bodies of its item.
    m = int(size.max(initial=0)) + 1
    key = item * m + size[rule]
    order = key.argsort()
    key, rule = key[order], rule[order]
    first = key.searchsorted(key, "right")
    span = key.searchsorted((key // m + 1) * m) - first
    cum = span.cumsum()
    shift = first - cum + span
    bounds = [0, len(key)]
    if len(key) and cum[-1] > BLOCK_PAIRS:
        block = (cum - span) // BLOCK_PAIRS
        bounds[1:1] = (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist()
    words = [(body[:, w].copy(), ~body[:, w]) for w in range(body.shape[1])]
    for lo, hi in zip(bounds, bounds[1:]) if len(key) else ():
        pos = np.arange(int(cum[lo] - span[lo]), int(cum[hi - 1]))
        a = rule[lo:hi].repeat(span[lo:hi])
        b = rule.take(shift[lo:hi].repeat(span[lo:hi]) + pos)
        hit = conf.take(a) <= conf.take(b)
        for word, not_word in words:
            hit &= (word.take(a) & not_word.take(b)) == 0
        out[a.compress(hit)] = True
    return out


class RuleSet:
    """Confidence-descending rules as columns: row ``i`` holds rule ``i``'s
    ascending body and head item ids, ``confidence``, ``support`` and
    ``support_count``.  The codec and the matcher read the columns; a
    row's :class:`Rule` is built when first asked for."""

    def __init__(
        self,
        body_items: list[list[int]],
        head_items: list[list[int]],
        confidence: list[float],
        support: list[float],
        support_count: list[int],
        item_names: Sequence[str],
        fatal_items: frozenset[int],
    ) -> None:
        for extreme in (min, max):
            check_fraction(
                extreme(chain(confidence, support), default=0.0),
                "rule confidence and support",
            )
        self.body_items, self.head_items = body_items, head_items
        self.confidence, self.support = confidence, support
        self.support_count = support_count
        self.item_names: list[str] = list(item_names)
        self.fatal_items = fatal_items
        self._rules: list[Optional[Rule]] = [None] * len(confidence)
        self._index: Optional[tuple[dict[int, list[int]], list[int]]] = None

    @cached_property
    def item_index(self) -> dict[str, int]:
        """Item name -> item id, for mapping other stores' labels by name."""
        return {name: i for i, name in enumerate(self.item_names)}

    def body_index(self) -> tuple[dict[int, list[int]], list[int]]:
        """Item -> indices of the rules whose body holds it (ascending),
        and each body's size; built once, shared by every matcher."""
        if self._index is None:
            by_item: dict[int, list[int]] = defaultdict(list)
            for idx, body in enumerate(self.body_items):
                for item in body:
                    by_item[item].append(idx)
            self._index = (dict(by_item), list(map(len, self.body_items)))
        return self._index

    @property
    def rules(self) -> list[Rule]:
        """Every rule, in order."""
        return list(self)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int) -> Rule:
        rule = self._rules[i]
        if rule is None:
            rule = self._rules[i] = Rule(
                frozenset(self.body_items[i]),
                frozenset(self.head_items[i]),
                self.confidence[i],
                self.support[i],
                self.support_count[i],
            )
        return rule

    def matching(self, observed: Iterable[int]) -> list[Rule]:
        """All rules whose body is fully observed (confidence-descending)."""
        observed = set(observed)
        return [
            self[i] for i, body in enumerate(self.body_items) if observed.issuperset(body)
        ]

    def format_rules(self, limit: Optional[int] = None) -> str:
        """Figure-3 style listing of the top rules."""
        top = range(len(self))[:limit]
        return "\n".join(self[i].format(self.item_names) for i in top)


def item_ids_for(
    store: EventStore, item_index: Mapping[str, int], unseen: int
) -> np.ndarray:
    """A classified store's subcategory column, in a model's item space.

    Labels are matched by *name*, so the store's interning order does not
    matter; a label ``item_index`` lacks maps to ``unseen``.
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
        self._by_item, self._sizes = ruleset.body_index()
        self._missing: list[int] = list(self._sizes)
        # Built rules, or None: the set builds one when it is first reported.
        self._rules = ruleset._rules
        # Lazy min-heap of rule indices that became satisfied.  Rules are
        # confidence-descending, so the smallest *currently satisfied* index
        # is exactly the paper's Step-6 pick; stale entries (rules that fell
        # back out of the window) are discarded at query time, which keeps
        # best_satisfied() O(log R) amortized instead of O(R) per event.
        self._satisfied_heap: list[int] = []

    def reset(self) -> None:
        """Clear the window state."""
        self._present.clear()
        self._missing = list(self._sizes)
        self._satisfied_heap.clear()

    def add(self, item: int) -> list[Rule]:
        """Item enters the window; returns rules completed by this arrival."""
        self._present[item] += 1
        completed: list[Rule] = []
        if self._present[item] == 1:  # 0 -> 1 transition
            for idx in self._by_item.get(item, ()):
                self._missing[idx] -= 1
                if self._missing[idx] == 0:
                    completed.append(self._rules[idx] or self.ruleset[idx])
                    heappush(self._satisfied_heap, idx)
        if len(completed) > 1:
            completed.sort(key=lambda r: -r.confidence)
        return completed

    def remove(self, item: int) -> None:
        """Item leaves the window."""
        count = self._present.get(item, 0)
        if count == 0:
            raise ValueError(f"item {item} not present in window")
        if count == 1:
            del self._present[item]
            for idx in self._by_item.get(item, ()):
                self._missing[idx] += 1
        else:
            self._present[item] = count - 1

    def satisfied_rules(self) -> list[Rule]:
        """All rules currently fully observed (confidence-descending)."""
        return [self.ruleset[i] for i, m in enumerate(self._missing) if m == 0]

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
        return self._rules[heap[0]] or self.ruleset[heap[0]]

    def has_observed(self) -> bool:
        """True if any item is currently in the window (no set built)."""
        return bool(self._present)

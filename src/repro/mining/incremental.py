"""The mining engine: one-shot fits and O(delta) sliding-window retrains.

This is the only mining engine: a one-shot fit (:func:`generate_rules`)
fills an empty :class:`IncrementalRuleMiner`.  Lifecycle retrains slide a
transaction window forward, and the maintained miner re-pays only for
what changed (the LogMaster idea in PAPERS.md).  :func:`mine_partitions`
is the counting kernel, :class:`IncrementalMiner` keeps the transactions
and the itemset table as bit-mask arrays, and :class:`IncrementalRuleMiner`
syncs against an :class:`EventSetDB` and feeds
:func:`repro.mining.rules.rules_from_table`.  The paper's cited Apriori
lives in ``tests/oracles.py`` as the independent check on this engine.

Soundness: a transaction add/evict marks its items *dirty*, and an
itemset's count can only change if some changed transaction holds it, so
only if every one of its items is dirty.  Rows with a clean item keep
their counts (filtered if the count threshold rose); every itemset of
dirty items is re-mined from the transactions cut down to those items.  A
threshold drop re-mines everything (see docs/incremental_mining.md).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.mining.counts import min_count_for
from repro.mining.rules import (
    RuleSet,
    mask_cells,
    mask_items,
    masks_of,
    rules_from_table,
    words_for,
)
from repro.mining.transactions import EventSetDB
from repro.obs import get_registry
from repro.util.validation import check_fraction

#: About how many ``(prefix, row, item)`` triples one kernel block expands;
#: a level with more is counted in several blocks of whole prefixes.
BLOCK_TRIPLES = 1 << 20

#: Itemsets as ``(masks, counts)`` arrays, row for row: an ``(n, W)``
#: ``uint64`` mask array and ``int64`` counts.
Table = tuple[np.ndarray, np.ndarray]


def mine_partitions(
    rows: np.ndarray,
    weights: np.ndarray,
    suffixes: Iterable[int],
    min_count: int,
    max_len: int,
) -> Table:
    """Frequent itemsets of a weighted transaction table whose maximum item
    is a suffix item, as ``(masks, counts)`` rows (exact int64 counts).

    ``rows`` holds the distinct transactions as an ``(n, W)`` mask array
    and ``weights`` their multiplicities (0 for a row no longer in use).
    Only rows holding a suffix item take part, as a CSR of ascending item
    ids.  Level ``k`` holds the frequent ``k``-itemsets as ``(prefix, end)``
    tid-list pairs, ``end`` being the CSR position of the prefix's smallest
    item in a row; extending each prefix by every smaller item of its rows
    gives triples whose sorted ``prefix * n_items + item`` keys group equal
    itemsets for an ``add.reduceat`` of the weights.  Each itemset is
    reached once, along its items in descending order.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    n_items = 64 * rows.shape[1]
    bit_rows = _bit_rows(rows.shape[1])
    suffix = np.array(sorted({s for s in suffixes if s < n_items}), np.int64)
    wanted = np.bitwise_or.reduce(bit_rows.take(suffix, 0))
    live = np.zeros(len(rows), bool)
    for w in range(rows.shape[1]):
        live |= (rows[:, w] & wanted[w]) != 0
    live &= weights > 0
    row_of, items = mask_cells(rows.compress(live, 0))  # the CSR, ascending per row
    weights = weights.compress(live)
    # Float sums of int64 weights are exact below 2**53.
    item_counts = np.bincount(items, weights[row_of], n_items).astype(np.int64)
    keep = item_counts.take(items) >= min_count
    items, row_of = items.compress(keep), row_of.compress(keep)
    weight_at = weights[row_of]
    row_start = row_of.searchsorted(np.arange(len(weights)))

    # Level 1: the frequent suffix items, one prefix each; ``sets`` holds
    # each prefix's mask.
    suffix = suffix[item_counts[suffix] >= min_count]
    sets = bit_rows.take(suffix, 0)
    found = [(sets, item_counts[suffix])]
    prefix_of_item = np.full(n_items, -1, np.int64)
    prefix_of_item[suffix] = np.arange(len(suffix))
    ends = (prefix_of_item[items] >= 0).nonzero()[0]
    prefix = prefix_of_item[items[ends]]
    order = prefix.argsort(kind="stable")
    prefix, ends = prefix[order], ends[order]

    for level in range(2, max_len + 1):
        if not len(prefix):
            break
        width = ends - row_start[row_of[ends]]
        cum = width.cumsum()
        # Triple j of the level belongs to the pair k with cum[k - 1] <= j <
        # cum[k] and adds the item at CSR position ends[k] - cum[k] + j.
        shift = ends - cum
        bounds = [0, len(prefix)]
        if cum[-1] > BLOCK_TRIPLES:
            # Blocks start only where a prefix does, so no count is split.
            first = np.flatnonzero(np.r_[True, prefix[1:] != prefix[:-1]])
            block = (cum[first] - width[first]) // BLOCK_TRIPLES
            bounds[1:1] = first[np.flatnonzero(np.diff(block)) + 1].tolist()
        n_new = 0
        next_level = []
        for lo, hi in zip(bounds, bounds[1:]):
            w = width[lo:hi]
            base = int(cum[lo - 1]) if lo else 0
            total = int(cum[hi - 1]) - base
            if not total:
                continue
            # The (prefix, row, item) triples: each pair with every item
            # before its prefix's smallest one in the row, as CSR positions.
            pos = shift[lo:hi].repeat(w) + np.arange(base, base + total)
            key = prefix[lo:hi].repeat(w) * n_items + items[pos]
            order = key.argsort()
            key, pos = key[order], pos[order]
            new = np.empty(total, bool)
            new[0] = True
            np.not_equal(key[1:], key[:-1], out=new[1:])
            head = new.nonzero()[0]
            sums = np.add.reduceat(weight_at[pos], head)
            frequent = sums >= min_count
            parents, added = np.divmod(key[head[frequent]], n_items)
            if not len(added):
                continue
            block_sets = sets.take(parents, 0) | bit_rows.take(added, 0)
            found.append((block_sets, sums[frequent]))
            if level < max_len:
                size = np.concatenate((head[1:], [total])) - head
                new_id = np.arange(n_new, n_new + len(added)).repeat(size[frequent])
                hit = frequent.repeat(size)
                next_level.append((block_sets, new_id, pos[hit]))
                n_new += len(added)
        if not next_level:
            break
        sets, prefix, ends = map(_joined, zip(*next_level))
    masks, counts = map(_joined, zip(*found))
    return masks, counts


def _joined(arrays: tuple[np.ndarray, ...]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@lru_cache(maxsize=8)
def _bit_rows(n_words: int) -> np.ndarray:
    """Row ``i`` is item ``i``'s mask (do not mutate)."""
    return masks_of([[i] for i in range(64 * n_words)], n_words)


class IncrementalMiner:
    """Maintained itemset counts over a sliding transaction multiset.

    ``add`` / ``evict`` update the multiset, item counts and dirty items in
    O(size of the delta); ``itemsets`` returns the exact frequent itemsets,
    re-mining only what could have changed.  The distinct transactions are
    kept as mask rows with weights and the itemset table as a ``(masks,
    counts)`` pair, both ``W`` words wide; ``W`` never shrinks.
    """

    def __init__(self) -> None:
        self._trans: Counter[frozenset[int]] = Counter()
        self._item_counts: Counter[int] = Counter()
        self._n = 0
        self._dirty: set[int] = set()
        # Transaction -> its row in _rows / _weights (weight 0 once gone).
        self._slot: dict[frozenset[int], int] = {}
        self._rows = np.zeros((0, 1), np.uint64)
        self._weights = np.zeros(0, np.int64)
        # Every partition of the table holds exactly its itemsets of at most
        # _max_len items with count >= _min_count.
        self._table: Optional[Table] = None
        self._max_len = self._min_count = 0
        #: Bumped on every state change; lets dependents (rule cache, the
        #: evaluation-layer fitter) detect staleness cheaply.
        self.version = 0

    # -- delta maintenance -------------------------------------------------

    @property
    def n_transactions(self) -> int:
        return self._n

    def transaction_counts(self) -> Counter[frozenset[int]]:
        """The current multiset (live view; do not mutate)."""
        return self._trans

    def add(self, transactions: Iterable[frozenset[int]]) -> int:
        """Add a window of transactions; returns the number added."""
        return self._apply(Counter(), Counter(map(frozenset, transactions)))[1]

    def evict(self, transactions: Iterable[frozenset[int]]) -> int:
        """Evict previously-added transactions; returns the number evicted."""
        return self._apply(Counter(map(frozenset, transactions)), Counter())[0]

    def _apply(
        self, evict: Mapping[frozenset[int], int], add: Mapping[frozenset[int], int]
    ) -> tuple[int, int]:
        """Evict, then add, transaction -> multiplicity maps; returns the
        numbers evicted and added."""
        n_evict, n_add = sum(evict.values()), sum(add.values())
        if not n_evict + n_add:
            return 0, 0
        # Validate the whole evict first so a bad one cannot leave the
        # maintained state half-applied.
        for t, w in evict.items():
            have = self._trans.get(t, 0)
            if have < w:
                raise ValueError(f"evicting {w} x {sorted(t)} but only {have} present")
        trans, item_counts = self._trans, self._item_counts
        for delta, sign in ((evict, -1), (add, 1)):
            for t, w in delta.items():
                trans[t] += sign * w
                if not trans[t]:
                    del trans[t]
                for item in t:
                    item_counts[item] += sign * w
                    if not item_counts[item]:
                        del item_counts[item]
                self._dirty.update(t)
        self._n += n_add - n_evict
        self._set_rows([*evict, *add])
        self.version += 1
        obs = get_registry()
        for n, op in ((n_evict, "evict"), (n_add, "add")):
            if n:
                obs.counter("mining.delta_transactions", n, op=op)
        return n_evict, n_add

    def _set_rows(self, changed: Iterable[frozenset[int]]) -> None:
        """Write the ``changed`` transactions' weights into the row arrays,
        adding rows for new ones; rebuild them when ``W`` must grow or dead
        rows outnumber live ones."""
        trans, slot = self._trans, self._slot
        new = [t for t in changed if t not in slot]
        top = max((max(t) for t in new if t), default=0)
        if words_for(top + 1) > self._rows.shape[1] or len(slot) + len(new) > 2 * len(trans) + 64:
            n_words = words_for(max(self._item_counts, default=0) + 1)
            slot.clear()
            self._rows = np.zeros((0, max(n_words, self._rows.shape[1])), np.uint64)
            self._weights = np.zeros(0, np.int64)
            changed = new = list(trans)
        if new:
            slot.update(zip(new, range(len(slot), len(slot) + len(new))))
            self._rows = np.concatenate([self._rows, masks_of(new, self._rows.shape[1])])
            self._weights = np.concatenate([self._weights, np.zeros(len(new), np.int64)])
        changed = list(changed)
        self._weights[[slot[t] for t in changed]] = [trans.get(t, 0) for t in changed]

    # -- mining ------------------------------------------------------------

    def itemsets(
        self, min_support: float, max_len: int = 6
    ) -> dict[frozenset[int], int]:
        """Frequent itemsets of the current multiset with their exact counts."""
        check_fraction(min_support, "min_support")
        masks, counts = self._refresh(min_support, max_len)
        return dict(zip(map(frozenset, mask_items(masks)), counts.tolist()))

    def _refresh(self, min_support: float, max_len: int) -> Table:
        """Bring the itemset table up to date and return it (do not mutate):
        drop the rows of dirty items only, re-mine the dirty items' itemsets
        in one kernel call, keep the rest with ``count >= min_count``."""
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        rows, n_words = self._rows, self._rows.shape[1]
        min_count = min_count_for(min_support, self._n)
        table = self._table
        if table is None or max_len != self._max_len or min_count < self._min_count:
            table, stale = None, list(self._item_counts)
        else:
            stale = [i for i in self._dirty if i in self._item_counts]
            masks, counts = table
            if masks.shape[1] < n_words:  # wider masks hold the same itemsets
                pad = np.zeros((len(masks), n_words - masks.shape[1]), np.uint64)
                masks = np.hstack([masks, pad])
            region = np.bitwise_or.reduce(_bit_rows(n_words).take(list(self._dirty), 0))
            keep = counts >= min_count
            outside = np.zeros(len(masks), bool)
            for w in range(n_words):
                outside |= (masks[:, w] & ~region[w]) != 0
            keep &= outside
            table = (masks.compress(keep, 0), counts.compress(keep))
            rows = rows & region
        new = mine_partitions(rows, self._weights, stale, min_count, max_len)
        self._table = new if table is None else tuple(
            np.concatenate(pair) for pair in zip(table, new)
        )
        self._max_len, self._min_count = max_len, min_count
        self._dirty.clear()
        obs = get_registry()
        obs.counter(
            "mining.incremental.suffix_reused", len(self._item_counts) - len(stale)
        )
        obs.counter("mining.incremental.suffix_mined", len(stale))
        return self._table


class IncrementalRuleMiner:
    """Maintained rule mining over a sliding :class:`EventSetDB` window.

    ``sync(db)`` diffs the database's transaction multiset against the
    maintained one and applies only the delta; ``rules()`` then produces a
    :class:`RuleSet` bit-identical to a one-shot ``generate_rules(db, ...)``
    with the same parameters.
    """

    def __init__(
        self,
        min_support: float = 0.04,
        min_confidence: float = 0.2,
        max_len: int = 6,
        combine: bool = True,
        prune_generalizations: bool = True,
    ) -> None:
        check_fraction(min_support, "min_support")
        check_fraction(min_confidence, "min_confidence")
        self.min_support = min_support
        self.min_confidence = min_confidence
        self.max_len = max_len
        self.combine = combine
        self.prune_generalizations = prune_generalizations
        self.miner = IncrementalMiner()
        self.item_names: list[str] = []
        self.fatal_items: frozenset[int] = frozenset()
        # The last synced window's (bodies, heads) and the miner version it
        # left; the next sync diffs against it while that version holds.
        self._window: Optional[
            tuple[list[frozenset[int]], list[frozenset[int]], int]
        ] = None
        self._ruleset: Optional[RuleSet] = None
        self._ruleset_version = -1

    # -- window maintenance ------------------------------------------------

    def sync(self, db: EventSetDB) -> tuple[int, int]:
        """Bring the maintained window in line with ``db`` by multiset diff;
        returns ``(n_added, n_evicted)``.  Item ids must be stable across
        windows (EventStore.concat grows label tables prefix-stably); a
        conflicting table resets the state to a from-scratch build."""
        if list(db.item_names[: len(self.item_names)]) != self.item_names:
            self.reset()
        if (
            len(db.item_names) != len(self.item_names)
            or db.fatal_items != self.fatal_items
        ):
            # The rule set carries the label table: a grown table or new
            # fatal set changes it even when no transaction does.
            self._ruleset = None
        self.item_names = list(db.item_names)
        self.fatal_items = db.fatal_items
        window = (list(db.bodies), list(db.heads))
        last = self._window
        if last is not None and last[2] == self.miner.version:
            # The miner holds exactly the last synced window.
            gone, came = _unshared(last[:2], window)
        else:
            gone = self.miner.transaction_counts()
            came = Counter(map(frozenset.union, *window))
        # Counter subtraction keeps positive differences only.
        to_add, to_evict = came - gone, gone - came
        self.miner._apply(to_evict, to_add)
        self._window = (*window, self.miner.version)
        return sum(to_add.values()), sum(to_evict.values())

    def reset(self) -> None:
        """Drop all maintained state (next sync rebuilds from scratch)."""
        self.miner = IncrementalMiner()
        self._window = None
        self._ruleset = None
        self._ruleset_version = -1

    # -- rule generation ---------------------------------------------------

    def rules(self) -> RuleSet:
        """The rule set of the current window — bit-identical to a one-shot
        ``generate_rules`` with this miner's parameters on the same
        database."""
        if (
            self._ruleset is not None
            and self._ruleset_version == self.miner.version
        ):
            get_registry().counter("mining.incremental.ruleset_reused")
            return self._ruleset
        masks, counts = self.miner._refresh(self.min_support, self.max_len)
        get_registry().counter("mining.itemsets_frequent", len(counts))
        ruleset = rules_from_table(
            masks,
            counts,
            self.miner._rows,
            self.miner._weights,
            item_names=self.item_names,
            fatal_items=self.fatal_items,
            min_confidence=self.min_confidence,
            combine=self.combine,
            prune_generalizations=self.prune_generalizations,
        )
        self._ruleset = ruleset
        self._ruleset_version = self.miner.version
        return ruleset


Window = tuple[list[frozenset[int]], list[frozenset[int]]]


def _unshared(old: Window, new: Window) -> tuple[Counter, Counter]:
    """The transactions of windows ``old`` and ``new`` (``(bodies, heads)``
    lists) outside the run of transactions they share in order, found from
    old's last transaction with a gallop and bisection.  Leaving out any
    shared run keeps the multiset difference exact."""
    (old_b, old_h), (new_b, new_h) = old, new
    run = end = 0
    if old_b:
        # Anchor: the last occurrence of old's last transaction in new.
        end = len(new_b)
        last = (old_b[-1], old_h[-1])
        while end and (new_b[end - 1], new_h[end - 1]) != last:
            end -= 1
    if end:
        # The longest run ending at the anchor: gallop over how many leading
        # transactions of the overlap differ, then bisect.
        span = min(len(old_b), end)

        def matches(skip: int) -> bool:
            n = span - skip
            return (
                old_h[-n:] == new_h[end - n : end]
                and old_b[-n:] == new_b[end - n : end]
            )

        bad, skip = -1, 0
        while not matches(skip):
            bad, skip = skip, min(2 * skip + 1, span - 1)
        while skip - bad > 1:
            mid = (bad + skip) // 2
            bad, skip = (bad, mid) if matches(mid) else (mid, skip)
        run = span - skip
    kept = len(old_b) - run
    return (
        Counter(map(frozenset.union, old_b[:kept], old_h[:kept])),
        Counter(
            map(
                frozenset.union,
                new_b[: end - run] + new_b[end:],
                new_h[: end - run] + new_h[end:],
            )
        ),
    )


def generate_rules(
    db: EventSetDB,
    min_support: float = 0.04,
    min_confidence: float = 0.2,
    max_len: int = 6,
    combine: bool = True,
    prune_generalizations: bool = True,
) -> RuleSet:
    """Mine, filter, combine and sort rules from an event-set database
    (paper Steps 2-4, default thresholds the paper's): an
    :class:`IncrementalRuleMiner` filled from empty.
    ``prune_generalizations`` drops a rule when a rule with a larger body,
    a shared head and at least its confidence exists: the matcher prefers
    that one whenever both match.
    """
    check_fraction(min_support, "min_support")
    check_fraction(min_confidence, "min_confidence")
    miner = IncrementalRuleMiner(
        min_support=min_support,
        min_confidence=min_confidence,
        max_len=max_len,
        combine=combine,
        prune_generalizations=prune_generalizations,
    )
    with get_registry().span("phase2.mine"):
        miner.sync(db)
        return miner.rules()

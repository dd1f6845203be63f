"""The mining engine: one-shot fits and O(delta) sliding-window retrains.

This is the only mining engine.  A one-shot fit (:func:`generate_rules`)
fills an empty :class:`IncrementalRuleMiner` and reads its rules, so every
fit in the system mines through one code path.  Lifecycle retrains slide a
transaction window forward: each retrain adds the new chunk's transactions
and evicts the expired ones, while the bulk of the window is unchanged.  The
maintained miner keeps the mining state across retrains and re-pays only for
what changed — the LogMaster idea (PAPERS.md) of keeping event-correlation
state alive as logs arrive.  The paper's cited Apriori lives in
``tests/oracles.py`` as the independent check on this engine.

Structure
---------
:func:`mine_partitions`
    The counting kernel: mines the itemset partitions of a batch of suffix
    items at once, level by level over NumPy tid-lists of the weighted
    distinct transactions.
:class:`IncrementalMiner`
    The itemset-count half: a transaction multiset + per-suffix mined-itemset
    cache with dirty-item tracking + the merged itemset table.
    ``itemsets()`` re-mines only suffix items whose supporting transactions
    changed, all of them in one kernel call.
:class:`IncrementalRuleMiner`
    The rule half: syncs against an :class:`EventSetDB` by multiset diff,
    keeps Step-2 rule candidates per partition, feeds them through
    :func:`repro.mining.rules.rules_from_itemsets` with a body counter that
    memoizes the scans of multi-head bodies, and snapshots/restores through
    plain dicts for the codec registry.

Soundness (why delta-mining is exact)
-------------------------------------
Frequent itemsets are partitioned by their *maximum* item: the kernel grows
every itemset from its maximum item by adding ever smaller items, so the
partition of suffix item ``i`` holds exactly the frequent itemsets whose max
item is ``i``.  A transaction add/evict marks all its items *dirty*; an
itemset's count can only change if **every** one of its items occurred in
some changed transaction, so any suffix item that stayed clean proves every
itemset in its partition kept its count — its cached partition is reused
verbatim when the absolute support threshold did not drop (if the threshold
*rose*, the cache is filtered by count, which is exact because counts are
exact).  A threshold drop can make previously-infrequent itemsets frequent
without touching any transaction, so it forces a re-mine of every suffix;
that is the one case where incremental work degenerates to from-scratch cost
(see docs/incremental_mining.md).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.mining.counts import min_count_for
from repro.mining.rules import (
    Candidate,
    RuleSet,
    rule_candidates,
    rules_from_itemsets,
)
from repro.mining.transactions import EventSetDB
from repro.obs import get_registry
from repro.util.validation import check_fraction

#: About how many ``(prefix, row, item)`` triples one kernel block expands;
#: a level with more is counted in several blocks of whole prefixes.
BLOCK_TRIPLES = 1 << 20


def mine_partitions(
    weighted: Mapping[frozenset[int], int],
    suffixes: Iterable[int],
    min_count: int,
    max_len: int,
) -> dict[int, dict[frozenset[int], int]]:
    """Frequent itemsets of ``weighted`` whose maximum item is a suffix item.

    ``weighted`` maps each distinct transaction to its multiplicity.  The
    result maps every item of ``suffixes`` to its partition: the itemsets of
    at most ``max_len`` items, with ``count >= min_count``, whose largest
    item it is, with their exact weighted counts (empty if the item is
    infrequent).  Mining every item at once gives all frequent itemsets.

    Only rows holding a suffix item and items frequent within those rows
    can take part, so the kernel works on that restriction, as a CSR of
    ascending item ids.  Level ``k`` holds the frequent ``k``-itemsets as
    *prefixes* with their tid-lists, stored as ``(prefix, row, end)`` pairs
    where ``end`` is the CSR position of the prefix's smallest item in that
    row.  Extending a prefix by each smaller item of each of its rows gives
    ``(prefix, row, item)`` triples; sorting their ``prefix * n_items +
    item`` keys groups equal pairs, and an int64 ``add.reduceat`` of the row
    weights counts them exactly.  The frequent triples are the next level's
    pairs.  Each itemset is reached once, along its items in descending
    order, so it lands in its maximum item's partition.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    wanted = frozenset(suffixes)
    out: dict[int, dict[frozenset[int], int]] = {s: {} for s in wanted}
    rows = [t for t in weighted if not wanted.isdisjoint(t)]
    if not rows:
        return out
    weights = np.fromiter(map(weighted.__getitem__, rows), np.int64, len(rows))
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    items = np.fromiter(chain.from_iterable(rows), np.int64, int(lengths.sum()))
    n_items = int(items.max()) + 1
    # CSR in ascending item order within each row: sort (row, item) keys.
    cell = np.repeat(np.arange(len(rows)), lengths) * n_items + items
    cell.sort()
    row_of, items = np.divmod(cell, n_items)
    counts = np.zeros(n_items, np.int64)
    np.add.at(counts, items, weights[row_of])
    keep = counts[items] >= min_count
    items, row_of = items[keep], row_of[keep]
    row_start = np.searchsorted(row_of, np.arange(len(rows)))

    # Level 1: the frequent suffix items, one prefix each.  ``sets`` holds
    # each prefix's itemset and ``parts`` the partition it belongs to.
    sets: list[frozenset[int]] = []
    parts: list[dict[frozenset[int], int]] = []
    prefix_of_item = np.full(n_items, -1, np.int64)
    for s in sorted(wanted):
        if s < n_items and counts[s] >= min_count:
            prefix_of_item[s] = len(sets)
            sets.append(frozenset((s,)))
            parts.append(out[s])
            out[s][sets[-1]] = int(counts[s])
    ends = np.flatnonzero(prefix_of_item[items] >= 0)
    prefix = prefix_of_item[items[ends]]
    order = np.argsort(prefix, kind="stable")
    prefix, row, ends = prefix[order], row_of[ends[order]], ends[order]
    if not len(prefix):
        return out

    for level in range(2, max_len + 1):
        width = ends - row_start[row]
        cum = np.cumsum(width)
        # Triple j of the level belongs to the pair k with cum[k - 1] <= j <
        # cum[k] and adds the item at CSR position ends[k] - cum[k] + j.
        shift = ends - cum
        bounds = [0, len(prefix)]
        if cum[-1] > BLOCK_TRIPLES:
            # Blocks start only where a prefix does, so no count is split.
            first = np.flatnonzero(np.r_[True, prefix[1:] != prefix[:-1]])
            block = (cum[first] - width[first]) // BLOCK_TRIPLES
            bounds[1:1] = first[np.flatnonzero(np.diff(block)) + 1].tolist()
        new_sets: list[frozenset[int]] = []
        new_parts: list[dict[frozenset[int], int]] = []
        next_pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for lo, hi in zip(bounds, bounds[1:]):
            w = width[lo:hi]
            base = int(cum[lo - 1]) if lo else 0
            total = int(cum[hi - 1]) - base
            if not total:
                continue
            # The (prefix, row, item) triples: each pair with every item
            # before its prefix's smallest one in the row.
            t_row = np.repeat(row[lo:hi], w)
            pos = np.repeat(shift[lo:hi], w) + np.arange(base, base + total)
            key = np.repeat(prefix[lo:hi], w) * n_items + items[pos]
            order = np.argsort(key)
            key, t_row, pos = key[order], t_row[order], pos[order]
            starts = np.empty(total, bool)
            starts[0] = True
            np.not_equal(key[1:], key[:-1], out=starts[1:])
            head = np.flatnonzero(starts)
            sums = np.add.reduceat(weights[t_row], head)
            frequent = sums >= min_count
            if not frequent.any():
                continue
            parents, added = np.divmod(key[head[frequent]], n_items)
            parents = parents.tolist()
            block_sets = [
                sets[p].union((i,)) for p, i in zip(parents, added.tolist())
            ]
            block_parts = [parts[p] for p in parents]
            for part, itemset, c in zip(
                block_parts, block_sets, sums[frequent].tolist()
            ):
                part[itemset] = c
            if level < max_len:
                size = np.diff(np.append(head, total))
                hit = np.repeat(frequent, size)
                new_id = np.repeat(
                    np.arange(len(new_sets), len(new_sets) + len(block_sets)),
                    size[frequent],
                )
                next_pairs.append((new_id, t_row[hit], pos[hit]))
            new_sets += block_sets
            new_parts += block_parts
        if not next_pairs:
            break
        sets, parts = new_sets, new_parts
        prefix, row, ends = (np.concatenate(a) for a in zip(*next_pairs))
    return out


class IncrementalMiner:
    """Maintained itemset counts over a sliding transaction multiset.

    ``add(transactions)`` / ``evict(transactions)`` update the multiset,
    item counts, and the dirty-item set in O(size of the delta);
    ``itemsets(min_support, max_len)`` then returns the exact frequent
    itemsets of the current multiset, re-mining only the suffix partitions
    whose counts could have changed.
    """

    def __init__(self) -> None:
        self._trans: Counter[frozenset[int]] = Counter()
        self._item_counts: Counter[int] = Counter()
        self._n = 0
        self._dirty: set[int] = set()
        # suffix item -> (min_count it was mined at, its itemset partition).
        self._suffix_cache: dict[int, tuple[int, dict[frozenset[int], int]]] = {}
        # The union of the cached partitions, maintained per partition.
        self._table: dict[frozenset[int], int] = {}
        self._last_max_len: Optional[int] = None
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
        return self._apply(Counter(map(frozenset, transactions)), +1)

    def evict(self, transactions: Iterable[frozenset[int]]) -> int:
        """Evict previously-added transactions; returns the number evicted."""
        return self._apply(Counter(map(frozenset, transactions)), -1)

    def _apply(self, delta: Mapping[frozenset[int], int], sign: int) -> int:
        """Apply ``delta`` (transaction -> multiplicity) with ``sign``."""
        n_delta = sum(delta.values())
        if not n_delta:
            return 0
        if sign < 0:
            # Validate the whole batch first so a bad evict cannot leave the
            # maintained state half-applied.
            for t, w in delta.items():
                have = self._trans.get(t, 0)
                if have < w:
                    raise ValueError(
                        f"evicting {w} x {sorted(t)} but only {have} present"
                    )
        trans, item_counts = self._trans, self._item_counts
        for t, w in delta.items():
            trans[t] += sign * w
            if not trans[t]:
                del trans[t]
            for item in t:
                item_counts[item] += sign * w
                if not item_counts[item]:
                    del item_counts[item]
            self._dirty.update(t)
        self._n += sign * n_delta
        self.version += 1
        get_registry().counter(
            "mining.delta_transactions",
            n_delta,
            op="add" if sign > 0 else "evict",
        )
        return n_delta

    # -- mining ------------------------------------------------------------

    def itemsets(
        self, min_support: float, max_len: int = 6
    ) -> dict[frozenset[int], int]:
        """Frequent itemsets of the current multiset with their exact counts.

        Suffix partitions untouched by the delta (and mined at a threshold
        no higher than now needed) are reused from cache; the rest are
        re-mined together in one :func:`mine_partitions` call.
        """
        check_fraction(min_support, "min_support")
        return dict(self._refresh(min_support, max_len))

    def _refresh(
        self, min_support: float, max_len: int
    ) -> dict[frozenset[int], int]:
        """Bring the partitions and the merged table up to date.

        Returns the merged table itself (live; do not mutate).  Only the
        entries of re-mined, filtered or vanished partitions are replaced.
        """
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        cache, table = self._suffix_cache, self._table
        if max_len != self._last_max_len:
            cache.clear()
            table.clear()
            self._last_max_len = max_len
        min_count = min_count_for(min_support, self._n)
        for item in [i for i in cache if i not in self._item_counts]:
            for s in cache.pop(item)[1]:
                del table[s]
        stale: list[int] = []
        for item in self._item_counts:
            cached = cache.get(item)
            if cached is None or item in self._dirty or min_count < cached[0]:
                stale.append(item)
            elif min_count != cached[0]:
                # Clean suffix: every itemset in the partition kept its
                # exact count, so a raised threshold only filters.
                kept = {s: c for s, c in cached[1].items() if c >= min_count}
                for s in cached[1].keys() - kept.keys():
                    del table[s]
                cache[item] = (min_count, kept)
        for item, part in mine_partitions(
            self._trans, stale, min_count, max_len
        ).items():
            for s in cache.get(item, (0, ()))[1]:
                del table[s]
            cache[item] = (min_count, part)
            table.update(part)
        self._dirty.clear()
        obs = get_registry()
        obs.counter("mining.incremental.suffix_reused", len(cache) - len(stale))
        obs.counter("mining.incremental.suffix_mined", len(stale))
        return table


class IncrementalRuleMiner:
    """Maintained rule mining over a sliding :class:`EventSetDB` window.

    ``sync(db)`` diffs the database's transaction multiset against the
    maintained one and applies only the delta; ``rules()`` then produces a
    :class:`RuleSet` bit-identical to a one-shot ``generate_rules(db, ...)``
    with the same parameters.  Step-2 rule candidates are kept per suffix
    partition while its partition is reused.  Step-3 scans of multi-head
    bodies are memoized and invalidated per dirty item.
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
        self._rule_dirty: set[int] = set()
        # (body, heads) -> (body_count, hit_count); valid while no item of
        # the body occurs in a changed transaction.
        self._body_cache: dict[
            tuple[frozenset[int], frozenset[int]], tuple[int, int]
        ] = {}
        # suffix item -> (the partition dict, its Step-2 candidates); an
        # entry is valid while the miner still holds that very dict.
        self._candidates: dict[
            int, tuple[dict[frozenset[int], int], list[Candidate]]
        ] = {}
        # The last synced window's (bodies, heads) and the miner version it
        # left; the next sync diffs against it while that version holds.
        self._window: Optional[
            tuple[list[frozenset[int]], list[frozenset[int]], int]
        ] = None
        self._ruleset: Optional[RuleSet] = None
        self._ruleset_version = -1

    # -- window maintenance ------------------------------------------------

    def sync(self, db: EventSetDB) -> tuple[int, int]:
        """Bring the maintained window in line with ``db`` by multiset diff.

        Returns ``(n_added, n_evicted)``.  Item ids must be stable across
        windows: the interned-name tables of successive windows must agree
        on every id the maintained state has seen (EventStore.concat grows
        tables prefix-stably, so sliding windows of one stream qualify).  A
        conflicting table resets the state to a from-scratch build.
        """
        if not self._names_compatible(db.item_names):
            self.reset()
        if (
            len(db.item_names) != len(self.item_names)
            or db.fatal_items != self.fatal_items
        ):
            # The rule set carries the label table: a grown table or new
            # fatal set changes it even when no transaction does.
            self._ruleset = None
            self._candidates = {}
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
        self._touch(to_evict)
        self._touch(to_add)
        n_evicted = self.miner._apply(to_evict, -1)
        n_added = self.miner._apply(to_add, +1)
        self._window = (*window, self.miner.version)
        return n_added, n_evicted

    def add_window(self, transactions: Iterable[frozenset[int]]) -> int:
        """Add transactions directly (callers managing their own windows)."""
        batch = [frozenset(t) for t in transactions]
        self._touch(batch)
        return self.miner.add(batch)

    def evict_window(self, transactions: Iterable[frozenset[int]]) -> int:
        """Evict transactions directly (exact multiset members required)."""
        batch = [frozenset(t) for t in transactions]
        self._touch(batch)
        return self.miner.evict(batch)

    def reset(self) -> None:
        """Drop all maintained state (next sync rebuilds from scratch)."""
        self.miner = IncrementalMiner()
        self._rule_dirty.clear()
        self._body_cache.clear()
        self._candidates.clear()
        self._window = None
        self._ruleset = None
        self._ruleset_version = -1

    def _names_compatible(self, names: Sequence[str]) -> bool:
        if len(names) < len(self.item_names):
            return False
        return all(a == b for a, b in zip(self.item_names, names))

    def _touch(self, batch: Iterable[frozenset[int]]) -> None:
        for t in batch:
            self._rule_dirty.update(t)

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
        # Purge body-count memos touching any changed item, then mark the
        # remaining memos valid for this window.
        if self._rule_dirty:
            dirty = self._rule_dirty
            self._body_cache = {
                k: v for k, v in self._body_cache.items() if not (k[0] & dirty)
            }
            self._rule_dirty = set()
        freq = self.miner._refresh(self.min_support, self.max_len)
        get_registry().counter("mining.itemsets_frequent", len(freq))
        ruleset = rules_from_itemsets(
            freq,
            self.miner.n_transactions,
            candidates=self._rule_candidates(),
            item_names=self.item_names,
            fatal_items=self.fatal_items,
            min_confidence=self.min_confidence,
            combine=self.combine,
            prune_generalizations=self.prune_generalizations,
            body_counter=self._count_body,
        )
        self._ruleset = ruleset
        self._ruleset_version = self.miner.version
        return ruleset

    def _rule_candidates(self) -> list[Candidate]:
        """Step-2 candidates of every partition, reusing each partition's
        list while the miner reuses that partition."""
        kept = {}
        out: list[Candidate] = []
        for item, (_, part) in self.miner._suffix_cache.items():
            entry = self._candidates.get(item)
            if entry is None or entry[0] is not part:
                entry = (part, rule_candidates(part, self.fatal_items))
            kept[item] = entry
            out.extend(entry[1])
        self._candidates = kept
        return out

    def _count_body(
        self, body: frozenset[int], heads: frozenset[int]
    ) -> tuple[int, int]:
        key = (body, heads)
        cached = self._body_cache.get(key)
        if cached is not None:
            get_registry().counter("mining.incremental.body_cache_hits")
            return cached
        body_count = 0
        hit_count = 0
        for t, w in self.miner.transaction_counts().items():
            if body <= t:
                body_count += w
                if t & heads:
                    hit_count += w
        self._body_cache[key] = (body_count, hit_count)
        return body_count, hit_count

    # -- snapshot / restore ------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe snapshot of the maintained window and parameters.

        Only the transaction multiset and window metadata are persisted —
        partitions, caches and dirty sets are derived state rebuilt on restore, so
        snapshots stay small and content-addressable hashes stay stable
        across cache states.
        """
        return {
            "params": {
                "min_support": self.min_support,
                "min_confidence": self.min_confidence,
                "max_len": self.max_len,
                "combine": self.combine,
                "prune_generalizations": self.prune_generalizations,
            },
            "item_names": list(self.item_names),
            "fatal_items": sorted(self.fatal_items),
            "transactions": sorted(
                (sorted(t), w)
                for t, w in self.miner.transaction_counts().items()
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "IncrementalRuleMiner":
        params = payload["params"]
        self = cls(
            min_support=params["min_support"],
            min_confidence=params["min_confidence"],
            max_len=params["max_len"],
            combine=params["combine"],
            prune_generalizations=params["prune_generalizations"],
        )
        self.item_names = list(payload["item_names"])
        self.fatal_items = frozenset(payload["fatal_items"])
        batch = [
            frozenset(items)
            for items, w in payload["transactions"]
            for _ in range(w)
        ]
        self.add_window(batch)
        return self


Window = tuple[list[frozenset[int]], list[frozenset[int]]]


def _unshared(old: Window, new: Window) -> tuple[Counter, Counter]:
    """The transactions of windows ``old`` and ``new`` (``(bodies, heads)``
    lists) outside one run of transactions the two share in order.

    A sliding window keeps most of its transactions in order, so the run
    that ends at old's last transaction and reappears in ``new`` is found
    with a few slice comparisons, and only the transactions around it are
    counted.  Leaving out any run both windows share keeps their multiset
    difference exact, so a poor alignment only costs time.
    """
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
    """Mine, filter, combine and sort rules from an event-set database.

    Implements Steps 2-4 of the paper's rule-based method.  ``min_support``
    and ``min_confidence`` default to the paper's values.  The one-shot
    fit: an :class:`IncrementalRuleMiner` filled from empty.

    ``prune_generalizations`` drops a rule whose body is a proper subset of
    another rule's body when the more specific rule shares a head and has at
    least the same confidence: the general rule then adds no predictive
    value (every time its stronger specialization matches, the matcher
    prefers that anyway — paper Step 6 picks the highest confidence) while
    firing spuriously whenever the partial body occurs alone.
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

"""The mining engine: one-shot fits and O(delta) sliding-window retrains.

This is the only mining engine.  A one-shot fit (:func:`generate_rules`)
fills an empty :class:`IncrementalRuleMiner` and reads its rules, so every
fit in the system mines through one code path.  Lifecycle retrains slide a
transaction window forward: each retrain adds the new chunk's transactions
and evicts the expired ones, while the bulk of the window is unchanged.  The
maintained miner keeps the mining state across retrains and re-pays only for
what changed — the CanTree/LogMaster idea (PAPERS.md) of keeping
event-correlation state alive as logs arrive.  The paper's cited Apriori
lives in ``tests/oracles.py`` as the independent check on this engine.

Structure
---------
:class:`CanonicalTree`
    A prefix tree over transactions stored in *canonical* (ascending item-id)
    order.  Unlike a frequency-ordered FP-tree, the insertion path of a
    transaction never depends on global counts, so weighted insert/remove of
    arbitrary transactions keeps the tree exactly equal to one built from
    scratch on the surviving multiset.
:class:`IncrementalMiner`
    The itemset-count half: a transaction multiset + canonical tree +
    per-suffix mined-itemset cache with dirty-item tracking.  ``itemsets()``
    re-mines only suffix items whose supporting transactions changed, through
    FP-growth's conditional-tree primitives (:mod:`repro.mining.fptree`).
:class:`IncrementalRuleMiner`
    The rule half: syncs against an :class:`EventSetDB` by multiset diff,
    feeds the maintained itemset table through
    :func:`repro.mining.rules.rules_from_itemsets` with a memoizing body
    counter, and snapshots/restores through plain dicts for the codec
    registry.

Soundness (why delta-mining is exact)
-------------------------------------
Frequent itemsets are partitioned by their *maximum* item: mining item ``i``
over the conditional pattern base of items ``< i`` yields exactly the
frequent itemsets whose max item is ``i`` (this is FP-growth's recursion
evaluated in ascending header order over the canonical tree).  A transaction
add/evict marks all its items *dirty*; an itemset's count can only change if
**every** one of its items occurred in some changed transaction, so any
suffix item that stayed clean proves every itemset in its partition kept its
count — its cached partition is reused verbatim when the absolute support
threshold did not drop (if the threshold *rose*, the cache is filtered by
count, which is exact because counts are exact).  A threshold drop can make
previously-infrequent itemsets frequent without touching any transaction, so
it forces a re-mine of every suffix; that is the one case where incremental
work degenerates to from-scratch cost (see docs/incremental_mining.md).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Mapping, Optional, Sequence

from repro.mining.counts import min_count_for
from repro.mining.fptree import build_conditional_tree, mine_conditional
from repro.mining.rules import RuleSet, rules_from_itemsets
from repro.mining.transactions import EventSetDB
from repro.obs import get_registry
from repro.util.validation import check_fraction


class _CanNode:
    """One canonical-order prefix-tree node."""

    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item: Optional[int], parent: Optional["_CanNode"]) -> None:
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[int, _CanNode] = {}


class CanonicalTree:
    """Weighted prefix tree in canonical (ascending item-id) order.

    Because the path of a transaction is a pure function of the transaction
    itself, ``add(t, w)`` followed by ``remove(t, w)`` restores the tree
    bit-for-bit, and the tree after any add/remove sequence equals the tree
    built from scratch on the resulting multiset — the property a
    frequency-ordered FP-tree lacks (its item order shifts with counts,
    which is why CanTree-style canonical order is the standard choice for
    incremental mining).
    """

    def __init__(self) -> None:
        self.root = _CanNode(None, None)
        # item -> set of nodes carrying it (dict used as an ordered set).
        self._nodes: dict[int, dict[_CanNode, None]] = defaultdict(dict)

    def add(self, items: Sequence[int], count: int) -> None:
        """Insert a canonical-sorted transaction with multiplicity ``count``."""
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _CanNode(item, node)
                node.children[item] = child
                self._nodes[item][child] = None
            child.count += count
            node = child

    def remove(self, items: Sequence[int], count: int) -> None:
        """Remove multiplicity ``count`` of a previously-added transaction.

        Nodes whose count reaches zero are pruned.  Counts are monotone down
        a path (parent.count >= child.count), so a zero-count node has only
        zero-count descendants and unlinking it drops them all.
        """
        node = self.root
        path: list[_CanNode] = []
        for item in items:
            child = node.children.get(item)
            if child is None or child.count < count:
                raise ValueError(
                    f"cannot remove {count} x {list(items)}: not present"
                )
            path.append(child)
            node = child
        for child in reversed(path):
            child.count -= count
            if child.count == 0:
                parent = child.parent
                assert parent is not None
                del parent.children[child.item]  # type: ignore[arg-type]
                del self._nodes[child.item][child]
                for orphan_item, orphan in _iter_subtree(child):
                    self._nodes[orphan_item].pop(orphan, None)

    def paths(self, item: int) -> list[tuple[list[int], int]]:
        """Conditional pattern base of ``item``: (prefix-path, count) pairs.

        Prefix paths contain only items ``< item`` (canonical order), which
        is exactly the conditional DB for the max-item-``item`` partition.
        """
        out: list[tuple[list[int], int]] = []
        for node in self._nodes.get(item, ()):
            if node.count == 0:
                continue
            path: list[int] = []
            p = node.parent
            while p is not None and p.item is not None:
                path.append(p.item)
                p = p.parent
            path.reverse()
            out.append((path, node.count))
        return out


def _iter_subtree(node: _CanNode) -> Iterable[tuple[int, _CanNode]]:
    """All (item, node) pairs strictly below ``node``."""
    stack = list(node.children.values())
    while stack:
        n = stack.pop()
        assert n.item is not None
        yield n.item, n
        stack.extend(n.children.values())


class IncrementalMiner:
    """Maintained itemset counts over a sliding transaction multiset.

    ``add(transactions)`` / ``evict(transactions)`` update the canonical
    tree, item counts, and the dirty-item set in O(size of the delta);
    ``itemsets(min_support, max_len)`` then returns the exact frequent
    itemsets of the current multiset, re-mining only the suffix partitions
    whose counts could have changed.
    """

    def __init__(self) -> None:
        self._tree = CanonicalTree()
        self._trans: Counter[frozenset[int]] = Counter()
        self._item_counts: Counter[int] = Counter()
        self._n = 0
        self._dirty: set[int] = set()
        # suffix item -> (min_count it was mined at, its itemset partition).
        self._suffix_cache: dict[int, tuple[int, dict[frozenset[int], int]]] = {}
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
        for t, w in delta.items():
            items = sorted(t)
            if sign > 0:
                self._tree.add(items, w)
                self._trans[t] += w
            else:
                self._tree.remove(items, w)
                have = self._trans[t]
                if have == w:
                    del self._trans[t]
                else:
                    self._trans[t] = have - w
            for item in t:
                self._item_counts[item] += sign * w
                if self._item_counts[item] == 0:
                    del self._item_counts[item]
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
        re-mined from the canonical tree via FP-growth's conditional-tree
        primitives.
        """
        check_fraction(min_support, "min_support")
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        obs = get_registry()
        if self._n == 0:
            self._suffix_cache.clear()
            self._dirty.clear()
            return {}
        min_count = min_count_for(min_support, self._n)
        if max_len != self._last_max_len:
            self._suffix_cache.clear()
            self._last_max_len = max_len

        reused = 0
        mined = 0
        fresh: dict[int, tuple[int, dict[frozenset[int], int]]] = {}
        out: dict[frozenset[int], int] = {}
        for item in sorted(self._item_counts):
            cached = self._suffix_cache.get(item)
            if (
                cached is not None
                and item not in self._dirty
                and min_count >= cached[0]
            ):
                # Clean suffix: every itemset in the partition kept its
                # exact count; a raised threshold only filters.
                mined_at, sets = cached
                if min_count == mined_at:
                    part = sets
                else:
                    part = {s: c for s, c in sets.items() if c >= min_count}
                reused += 1
            else:
                part = self._mine_suffix(item, min_count, max_len)
                mined += 1
            fresh[item] = (min_count, part)
            out.update(part)
        self._suffix_cache = fresh
        self._dirty.clear()
        obs.counter("mining.incremental.suffix_reused", reused)
        obs.counter("mining.incremental.suffix_mined", mined)
        return out

    def _mine_suffix(
        self, item: int, min_count: int, max_len: int
    ) -> dict[frozenset[int], int]:
        """Mine the max-item-``item`` partition from its pattern base."""
        out: dict[frozenset[int], int] = {}
        if self._item_counts.get(item, 0) < min_count:
            return out
        out[frozenset({item})] = self._item_counts[item]
        if max_len < 2:
            return out
        base = self._tree.paths(item)
        if not base:
            return out
        tree, frequent = build_conditional_tree(base, min_count)
        if frequent:
            mine_conditional(
                tree, frequent, frozenset({item}), min_count, max_len, out
            )
        return out


class IncrementalRuleMiner:
    """Maintained rule mining over a sliding :class:`EventSetDB` window.

    ``sync(db)`` diffs the database's transaction multiset against the
    maintained one and applies only the delta; ``rules()`` then produces a
    :class:`RuleSet` bit-identical to a one-shot ``generate_rules(db, ...)``
    with the same parameters.  Body-count scans for Step-3 combined confidence are
    memoized and invalidated per dirty item.
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
        self.item_names = list(db.item_names)
        self.fatal_items = db.fatal_items
        target: Counter[frozenset[int]] = Counter(db.transactions())
        current = self.miner.transaction_counts()
        # Counter subtraction keeps positive differences only.
        to_evict = current - target
        to_add = target - current
        self._touch(to_evict)
        self._touch(to_add)
        n_evicted = self.miner._apply(to_evict, -1)
        return self.miner._apply(to_add, +1), n_evicted

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
        freq = self.miner.itemsets(self.min_support, self.max_len)
        get_registry().counter("mining.itemsets_frequent", len(freq))
        ruleset = rules_from_itemsets(
            freq,
            self.miner.n_transactions,
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
        tree, caches and dirty sets are derived state rebuilt on restore, so
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

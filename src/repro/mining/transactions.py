"""Event-set construction (paper §3.2.2, Step 1).

"On the learning set, for each fatal event identify the set of non-fatal
events frequently preceding it within a fixed time window (i.e. *rule
generation window*).  The set, including the fatal event and their precursor
non-fatal events, is called an *event-set*."

:class:`EventSetDB` is the transaction database handed to the miners: one
transaction per fatal event, containing the non-fatal subcategory ids seen in
``[t_fatal - window, t_fatal)`` plus the fatal event's own subcategory id.
Items are subcategory ids into the store's label table, so the mining layer
works on small integers.

The fraction of fatal events whose event-set has an *empty* body is the
quantity the paper reports as the rule-based method's recall ceiling (31-66 %
of ANL failures and 47-75 % of SDSC failures have no precursor).

:func:`build_tiled_windows` is an extension (not in the paper): it tiles the
whole timeline, including failure-free stretches, producing transactions with
no head.  Confidences computed on a tiled DB account for bodies that occur
without any failure, which the per-fatal DB cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.ras.store import UNCLASSIFIED, EventStore
from repro.util.validation import check_positive


@dataclass
class EventSetDB:
    """Transaction database for rule mining.

    Attributes
    ----------
    bodies:
        Per-transaction frozenset of non-fatal item ids.
    heads:
        Per-transaction frozenset of fatal item ids (empty for failure-free
        tiled windows).
    item_names:
        Item id -> subcategory name (the store's label table).
    fatal_items:
        Ids that denote fatal subcategories.
    """

    bodies: list[frozenset[int]]
    heads: list[frozenset[int]]
    item_names: list[str]
    fatal_items: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.bodies) != len(self.heads):
            raise ValueError("bodies and heads must align")

    def __len__(self) -> int:
        return len(self.bodies)

    def transactions(self) -> list[frozenset[int]]:
        """Body ∪ head per transaction (what the miners consume)."""
        return [b | h for b, h in zip(self.bodies, self.heads)]

    def no_precursor_fraction(self) -> float:
        """Fraction of transactions with an empty body (no precursors).

        Only transactions that carry a head (i.e. correspond to a fatal
        event) are counted; tiled failure-free windows are excluded.
        """
        with_head = sum(map(bool, self.heads))
        if not with_head:
            return 0.0
        empty = sum(1 for b, h in zip(self.bodies, self.heads) if h and not b)
        return empty / with_head

    def name_of(self, item: int) -> str:
        return self.item_names[item]


def _require_classified(events: EventStore) -> None:
    if len(events) and bool(np.any(events.subcat_ids == UNCLASSIFIED)):
        raise ValueError(
            "events must be classified (run the Phase-1 pipeline first)"
        )


@lru_cache(maxsize=8)
def _fatal_item_ids(names: tuple[str, ...]) -> frozenset[int]:
    """Ids of the fatal labels of a label table (every fit of one stream
    asks about the same few tables)."""
    from repro.taxonomy.classifier import TaxonomyClassifier

    is_fatal = TaxonomyClassifier().label_is_fatal
    return frozenset(i for i, name in enumerate(names) if is_fatal(name))


def build_event_sets(
    events: EventStore,
    rule_window: float,
    fatal_items: Optional[frozenset[int]] = None,
) -> EventSetDB:
    """One transaction per fatal event (the paper's construction).

    ``rule_window`` is the rule-generation window in seconds.  The body
    collects the *distinct* non-fatal subcategories in ``[t - window, t)``;
    the head is the fatal event's subcategory.
    """
    check_positive(rule_window, "rule_window")
    _require_classified(events)
    if fatal_items is None:
        fatal_items = _fatal_item_ids(tuple(events.subcat_table))

    times = events.times
    subcats = events.subcat_ids
    fatal_mask = events.fatal_mask()
    nonfatal_idx = np.flatnonzero(~fatal_mask)
    nonfatal_times = times[nonfatal_idx]
    nonfatal_subcats = subcats[nonfatal_idx]
    fatal_positions = np.flatnonzero(fatal_mask)

    # Vectorized bounds of each fatal's look-back window over the non-fatal
    # sub-array.
    lo = np.searchsorted(nonfatal_times, times[fatal_positions] - rule_window, "left")
    hi = np.searchsorted(nonfatal_times, times[fatal_positions], "left")

    # One tolist() each; a body is the distinct items of its window slice.
    nonfatal_items = nonfatal_subcats.tolist()
    bodies = [
        frozenset(nonfatal_items[a:b]) for a, b in zip(lo.tolist(), hi.tolist())
    ]
    fatal_ids = subcats[fatal_positions].tolist()
    singletons = {item: frozenset((item,)) for item in set(fatal_ids)}
    heads = [singletons[item] for item in fatal_ids]
    return EventSetDB(
        bodies=bodies,
        heads=heads,
        item_names=list(events.subcat_table),
        fatal_items=fatal_items,
    )


def build_tiled_windows(
    events: EventStore,
    window: float,
    fatal_items: Optional[frozenset[int]] = None,
) -> EventSetDB:
    """Tile the timeline into fixed windows (extension; includes empty heads).

    Every window of ``window`` seconds becomes one transaction: body = the
    distinct non-fatal subcategories inside it, head = the distinct fatal
    subcategories inside it (possibly empty).  Windows containing no events
    at all are skipped — they carry no information for mining.
    """
    check_positive(window, "window")
    _require_classified(events)
    if fatal_items is None:
        fatal_items = _fatal_item_ids(tuple(events.subcat_table))
    if len(events) == 0:
        return EventSetDB([], [], list(events.subcat_table), fatal_items)
    t0 = int(events.times[0])
    t1 = int(events.times[-1]) + 1
    edges = np.arange(t0, t1 + window, window)
    # Window id per event: largest i with edges[i] <= t, i.e. membership in
    # [edges[i], edges[i+1]) — the same intervals the per-window searchsorted
    # pairs delimit, computed in one pass over the event column instead of
    # one pass per window.
    win = np.searchsorted(edges, events.times, "right") - 1
    # Distinct (window, item) pairs via a composite key; np.unique both
    # dedups within each window and sorts by window, so decoding the keys
    # yields contiguous per-window segments in ascending window order —
    # exactly the order the per-window loop emitted transactions in.
    n_items = len(events.subcat_table) or 1
    keys = win.astype(np.int64) * n_items + events.subcat_ids
    fatal_mask = events.fatal_mask()
    nonfatal_keys = np.unique(keys[~fatal_mask])
    fatal_keys = np.unique(keys[fatal_mask])
    present = np.unique(win)  # windows containing >= 1 event, ascending
    nonfatal_win = nonfatal_keys // n_items
    fatal_win = fatal_keys // n_items
    nonfatal_lo = np.searchsorted(nonfatal_win, present, "left")
    nonfatal_hi = np.searchsorted(nonfatal_win, present, "right")
    fatal_lo = np.searchsorted(fatal_win, present, "left")
    fatal_hi = np.searchsorted(fatal_win, present, "right")
    nonfatal_items = (nonfatal_keys % n_items).tolist()
    fatal_items_list = (fatal_keys % n_items).tolist()
    bodies = [
        frozenset(nonfatal_items[lo:hi])
        for lo, hi in zip(nonfatal_lo.tolist(), nonfatal_hi.tolist())
    ]
    heads = [
        frozenset(fatal_items_list[lo:hi])
        for lo, hi in zip(fatal_lo.tolist(), fatal_hi.tolist())
    ]
    return EventSetDB(
        bodies=bodies,
        heads=heads,
        item_names=list(events.subcat_table),
        fatal_items=fatal_items,
    )

"""Event-set construction (paper §3.2.2, Step 1).

"On the learning set, for each fatal event identify the set of non-fatal
events frequently preceding it within a fixed time window (i.e. *rule
generation window*).  The set, including the fatal event and their precursor
non-fatal events, is called an *event-set*."

:class:`EventSetDB` holds one transaction per fatal event: the non-fatal
subcategory ids in ``[t_fatal - window, t_fatal)`` plus the fatal event's
own id.  The share of empty bodies is the paper's recall ceiling of the
rule-based method.  :func:`build_tiled_windows` (an extension) tiles the
whole timeline, failure-free stretches included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Optional

import numpy as np

from repro.ras.store import UNCLASSIFIED, EventStore
from repro.util.validation import check_positive


@dataclass
class EventSetDB:
    """Transaction database for rule mining: per transaction a frozenset
    of non-fatal item ids (``bodies``) and of fatal ones (``heads``, empty
    for failure-free tiled windows); ``item_names`` is the label table and
    ``fatal_items`` the fatal ids."""

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
        with_head = list(compress(self.bodies, self.heads))
        return with_head.count(frozenset()) / len(with_head) if with_head else 0.0


def _require_classified(events: EventStore) -> None:
    if len(events) and bool((events.subcat_ids == UNCLASSIFIED).any()):
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
    previous: Optional[tuple[EventStore, EventSetDB]] = None,
) -> EventSetDB:
    """One transaction per fatal event: the body holds the distinct
    non-fatal subcategories in ``[t - rule_window, t)``, the head the fatal
    event's subcategory.

    ``previous`` is an earlier store of the same stream and the database
    built from it with the same window, such as the last retrain window.
    A fatal event whose whole look-back lies in rows both stores share
    gets the same body, so it is taken from there: same contents, same
    object, and only the bodies around the shared rows are built.
    """
    check_positive(rule_window, "rule_window")
    _require_classified(events)
    if fatal_items is None:
        fatal_items = _fatal_item_ids(tuple(events.subcat_table))

    times = events.times
    subcats = events.subcat_ids
    fatal_mask = events.fatal_mask()
    nonfatal_idx = (~fatal_mask).nonzero()[0]
    nonfatal_times = times.take(nonfatal_idx)
    fatal_positions = fatal_mask.nonzero()[0]
    fatal_times = times.take(fatal_positions)

    # Vectorized bounds of each fatal's look-back window over the non-fatal
    # sub-array.
    start = fatal_times - rule_window
    lo = nonfatal_times.searchsorted(start).tolist()
    hi = nonfatal_times.searchsorted(fatal_times).tolist()
    a = b = k = 0
    if previous is not None:
        old, old_db = previous
        off, n = _shared_rows(old, events)
        if n:
            # Fatal events a..b-1 sit in the shared rows with no earlier
            # row of ``old`` in their look-back; in ``old`` they are fatal
            # events k + a.. on.
            a = int(start.searchsorted(old.times[off - 1], "right")) if off else 0
            b = max(a, int(fatal_positions.searchsorted(n)))
            k = int(old.fatal_mask()[:off].sum())
    # A body is the distinct items of its window slice; only the slices of
    # the fatal events before a and from b on are read.
    nonfatal_items = subcats.take(nonfatal_idx)
    bodies = []
    for lo_, hi_ in ((lo[:a], hi[:a]), (lo[b:], hi[b:])):
        if lo_:
            items = nonfatal_items[lo_[0] : hi_[-1]].tolist()
            slices = map(slice, (x - lo_[0] for x in lo_), (x - lo_[0] for x in hi_))
            bodies += map(frozenset, map(items.__getitem__, slices))
    fatal_ids = subcats.take(fatal_positions).tolist()
    fatal_ids[a:b] = []
    singletons = {item: frozenset((item,)) for item in set(fatal_ids)}
    heads = list(map(singletons.__getitem__, fatal_ids))
    if b > a:
        bodies[a:a] = old_db.bodies[k + a : k + b]
        heads[a:a] = old_db.heads[k + a : k + b]
    return EventSetDB(
        bodies=bodies,
        heads=heads,
        item_names=list(events.subcat_table),
        fatal_items=fatal_items,
    )


def _shared_rows(old: EventStore, new: EventStore) -> tuple[int, int]:
    """``(off, n)`` such that ``new``'s rows ``[0, n)`` equal ``old``'s
    rows ``[off, off + n)`` (time, subcategory and severity), with
    ``old``'s label table a prefix of ``new``'s; ``n`` is 0 if none."""
    names = old.subcat_table
    if not len(old) or not len(new) or new.subcat_table[: len(names)] != names:
        return 0, 0
    off = int(old.times.searchsorted(new.times[0]))
    while off < len(old) and old.times[off] == new.times[0]:
        n = min(len(old) - off, len(new))
        if (
            (old.subcat_ids[off : off + n] == new.subcat_ids[:n]).all()
            and (old.times[off : off + n] == new.times[:n]).all()
            and (old.severities[off : off + n] == new.severities[:n]).all()
        ):
            return off, n
        off += 1
    return 0, 0


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
